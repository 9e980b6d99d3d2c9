(* Set-associative cache with LRU replacement and, for the L1D, the
   per-byte protection bits of ProtISA's memory ProtSet tracking
   (Section IV-C2a).

   The cache models timing and tag state only; data always comes from the
   memory module (architectural state) or the LSQ.  Protection bits are
   attached to L1D lines: a line fill starts with every byte protected
   (evictions make ProtISA forget what was unprotected), committing
   unprefixed loads clear the bits of accessed bytes, and stores write
   their data operand's protection.

   Protection tracking is per-instance ([create ~prot:false] for the
   L2/L3, whose bytes ProtISA never tracks): untracked caches share one
   dummy protection buffer between all lines and skip the per-fill
   reset.  Sets are materialized lazily on the first miss that touches
   them — an empty set behaves exactly like one whose ways are all
   invalid, so a multi-megabyte L3 costs one pointer per set to create
   instead of half a million line records.  Tags are [int]s (58 bits) and
   a hit returns a [bool], so a hit allocates nothing; the trace path
   reads the last miss back with [last_miss]. *)

type line = {
  mutable tag : int;
  mutable valid : bool;
  mutable lru : int; (* higher = more recently used *)
  mutable prot : Bytes.t; (* one byte per line byte: 1 = protected *)
}

type t = {
  cfg : Config.cache_cfg;
  nsets : int;
  lbits : int; (* log2 line size *)
  track_prot : bool;
  shared_prot : Bytes.t; (* every line's [prot] when not tracking *)
  sets : line array array; (* [||] = untouched set (all ways invalid) *)
  mutable clock : int;
  mutable miss_tag : int; (* the tag the last miss filled *)
  mutable miss_victim : int; (* the tag it evicted; -1: none *)
}

let create ?(prot = true) (cfg : Config.cache_cfg) =
  let nsets = Config.cache_sets cfg in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  {
    cfg;
    nsets;
    lbits = log2 cfg.line;
    track_prot = prot;
    shared_prot = Bytes.make cfg.line '\001';
    sets = Array.make nsets [||];
    clock = 0;
    miss_tag = -1;
    miss_victim = -1;
  }

let tag_of t addr = Int64.to_int (Int64.shift_right_logical addr t.lbits)
let set_index t addr = tag_of t addr mod t.nsets
let line_offset t addr = Int64.to_int (Int64.logand addr (Int64.of_int (t.cfg.line - 1)))

(* Materialize a set's ways on first (miss) use. *)
let get_set t idx =
  let s = t.sets.(idx) in
  if Array.length s > 0 then s
  else begin
    let s =
      Array.init t.cfg.ways (fun _ ->
          {
            tag = 0;
            valid = false;
            lru = 0;
            prot =
              (if t.track_prot then Bytes.make t.cfg.line '\001'
               else t.shared_prot);
          })
    in
    t.sets.(idx) <- s;
    s
  end

(* Read-only lookup: the way of [set] holding [tag], or -1 (an
   unmaterialized set holds nothing).  An index, not an option, so a hit
   allocates nothing. *)
let rec find_way (set : line array) tag i =
  if i >= Array.length set then -1
  else if set.(i).valid && set.(i).tag = tag then i
  else find_way set tag (i + 1)

let touch t line =
  t.clock <- t.clock + 1;
  line.lru <- t.clock

(* Access the line containing [addr]: update LRU, allocate on miss
   (evicting the LRU way).  Newly-filled lines have all bytes protected.
   True on a hit. *)
let access t addr =
  let set_idx = set_index t addr in
  let tag = tag_of t addr in
  let way = find_way t.sets.(set_idx) tag 0 in
  if way >= 0 then begin
    touch t t.sets.(set_idx).(way);
    true
  end
  else begin
    (* Victim: the first invalid way, else the least recently used. *)
    let set = get_set t set_idx in
    let best = ref 0 in
    for i = 1 to Array.length set - 1 do
      let line = set.(i) and b = set.(!best) in
      if ((not line.valid) && b.valid)
         || (line.valid = b.valid && line.lru < b.lru)
      then best := i
    done;
    let line = set.(!best) in
    t.miss_tag <- tag;
    t.miss_victim <- (if line.valid then line.tag else -1);
    line.valid <- true;
    line.tag <- tag;
    if t.track_prot then Bytes.fill line.prot 0 t.cfg.line '\001';
    touch t line;
    false
  end

type miss = { set : int; tag : int64; evicted : int64 option }

let last_miss t =
  {
    set = t.miss_tag mod t.nsets;
    tag = Int64.of_int t.miss_tag;
    evicted =
      (if t.miss_victim < 0 then None
       else Some (Int64.shift_left (Int64.of_int t.miss_victim) t.lbits));
  }

(* --- Protection bits ------------------------------------------------ *)

(* Are any of the [size] bytes at [addr] protected?  Bytes not present in
   the cache are protected by definition. *)
let rec protected_from t addr size i =
  i < size
  &&
  let a = Int64.add addr (Int64.of_int i) in
  let set = t.sets.(set_index t a) in
  let way = find_way set (tag_of t a) 0 in
  way < 0
  || Bytes.get set.(way).prot (line_offset t a) = '\001'
  || protected_from t addr size (i + 1)

let protected_bytes t addr size = protected_from t addr size 0

(* Set the protection of the [size] bytes at [addr] that are present. *)
let set_protection t addr size ~protected =
  let v = if protected then '\001' else '\000' in
  for i = 0 to size - 1 do
    let a = Int64.add addr (Int64.of_int i) in
    let set = t.sets.(set_index t a) in
    let way = find_way set (tag_of t a) 0 in
    if way >= 0 then Bytes.set set.(way).prot (line_offset t a) v
  done
