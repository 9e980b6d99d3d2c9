(* Shared taint machinery for the tracking-based protection mechanisms
   (AccessTrack/STT, SPT, ProtTrack).

   Taint is represented per ROB entry by the sequence number of the
   youngest speculative access instruction the entry's data transitively
   depends on (STT's youngest root of taint).  An entry is tainted while
   that root is still speculative under the configured speculation model;
   untainting is therefore implicit when the root reaches the ROB head
   (ATCOMMIT) or all older branches resolve (CONTROL) — no broadcast
   needed. *)

open Protean_ooo
open Protean_isa

(* Taint root of one renamed source: the producer's root (committed
   producers are untainted). *)
let src_root (api : Policy.api) (e : Rob_entry.t) i =
  let p = e.Rob_entry.src_producer.(i) in
  if p < 0 then -1
  else
    let prod = api.Policy.peek p in
    if Rob_entry.is_null prod then -1 else prod.Rob_entry.taint_root

(* The youngest taint root among [e]'s *sensitive* operands from source
   [i] on, at least [acc].  Used by the execution and resolution gates,
   so it is a top-level recursion: no closure per gate poll. *)
let rec sensitive_root_from (api : Policy.api) (e : Rob_entry.t) i acc =
  if i >= Array.length e.Rob_entry.srcs then acc
  else if Insn.is_sensitive (snd e.Rob_entry.srcs.(i)) then
    sensitive_root_from api e (i + 1) (Int.max acc (src_root api e i))
  else sensitive_root_from api e (i + 1) acc

(* The least frontier at which no sensitive operand of [e] is tainted:
   its youngest sensitive taint root, [Policy.now] when none is
   tainted. *)
let sensitive_root api e =
  let r = sensitive_root_from api e 0 (-1) in
  if r < 0 then Policy.now else r

(* Is any sensitive operand of [e] tainted right now? *)
let sensitive_tainted api e = sensitive_root api e > Policy.frontier api

(* The taint of an indirect branch's loaded target ([ret] pops its target
   from the stack): the entry's own access status. *)
let own_load_tainted (api : Policy.api) (e : Rob_entry.t) =
  (e.Rob_entry.access_at_rename || e.Rob_entry.late_access)
  && Policy.root_speculative api e.Rob_entry.seq

(* Does the entry's resolution depend on its own loaded data?  True for
   [ret] (and any indirect control transfer through memory). *)
let resolves_from_memory (e : Rob_entry.t) =
  match e.Rob_entry.insn.Insn.op with Insn.Ret -> true | _ -> false
