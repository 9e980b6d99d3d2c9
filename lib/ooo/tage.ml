(* A compact TAGE direction predictor (Seznec & Michaud), the branch
   predictor named in the paper's Table III configuration.

   A base bimodal table is backed by [n_tables] tagged tables indexed by
   hashes of geometrically longer global-history prefixes.  Prediction
   comes from the longest-history matching table; allocation on
   mispredictions picks a not-useful entry in a longer-history table.

   The pipeline updates the global history speculatively at fetch and the
   tables at commit; squashes restore the history from a checkpoint the
   same way the RSB is handled (cleared — simple recovery). *)

type entry = {
  mutable tag : int;
  mutable ctr : int; (* 3-bit saturating: taken when >= 4 *)
  mutable useful : int; (* 2-bit usefulness *)
}

type t = {
  base : int array; (* bimodal 2-bit counters *)
  tables : entry array array;
  history_lengths : int array;
  mutable history : int; (* global history register, newest bit = lsb *)
  table_bits : int;
  tag_bits : int;
}

let n_tables = 4

let create ?(base_entries = 4096) ?(table_entries = 1024) () =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  {
    base = Array.make base_entries 1 (* weakly not-taken *);
    tables =
      Array.init n_tables (fun _ ->
          Array.init table_entries (fun _ -> { tag = -1; ctr = 4; useful = 0 }));
    history_lengths = [| 4; 8; 16; 32 |];
    history = 0;
    table_bits = log2 table_entries;
    tag_bits = 9;
  }

(* Fold the [len] newest history bits with the pc. *)
let index t i pc =
  let len = t.history_lengths.(i) in
  let h = t.history land ((1 lsl len) - 1) in
  let folded = ref 0 in
  let h = ref h in
  while !h <> 0 do
    folded := !folded lxor (!h land ((1 lsl t.table_bits) - 1));
    h := !h lsr t.table_bits
  done;
  (pc lxor !folded lxor (pc lsr t.table_bits))
  land ((1 lsl t.table_bits) - 1)

let tag_of t i pc =
  let len = t.history_lengths.(i) in
  let h = t.history land ((1 lsl len) - 1) in
  (pc lxor (h * 3) lxor (i * 0x9e37)) land ((1 lsl t.tag_bits) - 1)

let base_index t pc = pc land (Array.length t.base - 1)

(* Fetch-time snapshot: the indices and tags computed against the
   history the prediction used, so the commit-time update touches the
   same entries (real TAGE carries this with the branch). *)
type snapshot = {
  s_idx : int array;
  s_tag : int array;
  s_base : int;
  s_provider : int; (* table index, -1 = base *)
}

let snapshot t pc =
  let s_idx = Array.init n_tables (fun i -> index t i pc) in
  let s_tag = Array.init n_tables (fun i -> tag_of t i pc) in
  let provider = ref (-1) in
  for i = 0 to n_tables - 1 do
    if t.tables.(i).(s_idx.(i)).tag = s_tag.(i) then provider := i
  done;
  { s_idx; s_tag; s_base = base_index t pc; s_provider = !provider }

let predict_with t (s : snapshot) =
  if s.s_provider >= 0 then t.tables.(s.s_provider).(s.s_idx.(s.s_provider)).ctr >= 4
  else t.base.(s.s_base) >= 2

let predict t pc = predict_with t (snapshot t pc)

(* Speculative history update at fetch. *)
let push_history t taken =
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land 0xffffffff

(* Simple recovery: a squash clears the speculative history, like the
   RSB. *)
let clear_history t = t.history <- 0

(* Repair the newest (speculatively pushed) history bit once the actual
   outcome is known. *)
let repair_last t taken =
  t.history <- t.history land lnot 1 lor if taken then 1 else 0

let sat_inc v hi = if v < hi then v + 1 else v
let sat_dec v = if v > 0 then v - 1 else v

(* Commit-time update with the actual outcome, against the fetch-time
   snapshot. *)
let update_with t (s : snapshot) taken =
  if s.s_provider >= 0 then begin
    let i = s.s_provider in
    let e = t.tables.(i).(s.s_idx.(i)) in
    let correct = e.ctr >= 4 = taken in
    e.ctr <- (if taken then sat_inc e.ctr 7 else sat_dec e.ctr);
    if correct then e.useful <- sat_inc e.useful 3
    else begin
      e.useful <- sat_dec e.useful;
      (* Allocate in a longer-history table on a misprediction. *)
      if i + 1 < n_tables then begin
        let j = i + 1 in
        let cand = t.tables.(j).(s.s_idx.(j)) in
        if cand.useful = 0 then begin
          cand.tag <- s.s_tag.(j);
          cand.ctr <- (if taken then 4 else 3);
          cand.useful <- 0
        end
        else cand.useful <- sat_dec cand.useful
      end
    end
  end
  else begin
    let c = t.base.(s.s_base) in
    t.base.(s.s_base) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
    (* Allocate a tagged entry when the base mispredicts. *)
    if c >= 2 <> taken then begin
      let cand = t.tables.(0).(s.s_idx.(0)) in
      if cand.useful = 0 then begin
        cand.tag <- s.s_tag.(0);
        cand.ctr <- (if taken then 4 else 3)
      end
      else cand.useful <- sat_dec cand.useful
    end
  end

(* Snapshot-free update: recompute against the current history — an
   approximation used when the caller cannot carry the snapshot. *)
let update t pc taken = update_with t (snapshot t pc) taken
