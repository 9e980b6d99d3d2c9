(* Sparse byte-addressable memory, stored as 4-KiB pages.  Unmapped bytes
   read as zero, so transient wrong-path accesses to arbitrary addresses
   are always well-defined.  Pages are keyed by [int] page number (52
   bits) with the last page found memoized; 1-, 4- and 8-byte accesses
   inside one page are one word access, and only page-crossing ones go
   byte by byte (and so wrap at 2^64). *)

let page_bits = 12
let page_size = 1 lsl page_bits

module Pages = Hashtbl.Make (struct include Int let hash pn = pn end)

type t = {
  pages : Bytes.t Pages.t;
  mutable last_pn : int; (* -1 until a page is found *)
  mutable last : Bytes.t;
}

(* The page of every unmapped page number; never stored in the table. *)
let absent = Bytes.empty

let create () = { pages = Pages.create 16; last_pn = -1; last = absent }
let page_number addr = Int64.to_int (Int64.shift_right_logical addr page_bits)
let offset addr = Int64.to_int addr land (page_size - 1)

(* The page numbered [pn], or [absent].  Only mapped pages are memoized. *)
let find t pn =
  if pn = t.last_pn then t.last
  else
    match Pages.find_opt t.pages pn with
    | None -> absent
    | Some p ->
        t.last_pn <- pn;
        t.last <- p;
        p

(* The page numbered [pn], mapped zero-filled on first use. *)
let page t pn =
  let p = find t pn in
  if p != absent then p
  else begin
    let p = Bytes.make page_size '\000' in
    Pages.replace t.pages pn p;
    p
  end

let read_byte t addr =
  let p = find t (page_number addr) in
  if p == absent then 0 else Bytes.get_uint8 p (offset addr)

let write_byte t addr v =
  Bytes.set_uint8 (page t (page_number addr)) (offset addr) (v land 0xff)

(* Bytes [i] down to 0 of the access at [addr], below [acc]. *)
let rec read_bytes t addr i acc =
  if i < 0 then acc
  else
    let b = Int64.of_int (read_byte t (Int64.add addr (Int64.of_int i))) in
    read_bytes t addr (i - 1) (Int64.logor (Int64.shift_left acc 8) b)

let read t addr size =
  let off = offset addr in
  if off + size > page_size then read_bytes t addr (size - 1) 0L
  else
    let p = find t (page_number addr) in
    if p == absent then 0L
    else
      match size with
      | 8 -> Bytes.get_int64_le p off
      | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xffffffffL
      | 1 -> Int64.of_int (Bytes.get_uint8 p off)
      | _ -> read_bytes t addr (size - 1) 0L

let write t addr size v =
  let off = offset addr in
  if off + size > page_size || (size <> 8 && size <> 4 && size <> 1) then
    for i = 0 to size - 1 do
      let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) in
      write_byte t (Int64.add addr (Int64.of_int i)) b
    done
  else
    let p = page t (page_number addr) in
    if size = 8 then Bytes.set_int64_le p off v
    else if size = 4 then Bytes.set_int32_le p off (Int64.to_int32 v)
    else Bytes.set_uint8 p off (Int64.to_int v land 0xff)

(* [f pn off i n] for each in-page run of the [len] bytes at [addr]: its
   [n] bytes at [off] in page [pn] are bytes [i] to [i + n - 1]. *)
let rec runs addr len i f =
  if i < len then begin
    let a = Int64.add addr (Int64.of_int i) in
    let n = min (len - i) (page_size - offset a) in
    f (page_number a) (offset a) i n;
    runs addr len (i + n) f
  end

let write_string t addr s =
  runs addr (String.length s) 0 (fun pn off i n ->
      Bytes.blit_string s i (page t pn) off n)

let read_string t addr len =
  let b = Bytes.make len '\000' in
  runs addr len 0 (fun pn off i n ->
      let p = find t pn in
      if p != absent then Bytes.blit p off b i n);
  Bytes.unsafe_to_string b

let iter_pages t f = Pages.iter (fun pn p -> f (Int64.of_int pn) p) t.pages
