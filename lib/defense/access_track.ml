(* AccessTrack — the protection mechanism of STT (Section VI-A2).

   Hardware-defined ProtSet: all of memory, no registers; targets
   non-secret-accessing (ARCH) code.  Loads are the access instructions:
   their outputs (and transitively their dependents) are tainted at
   rename; transmitters with a tainted sensitive operand may not
   execute/resolve until the youngest access they depend on becomes
   non-speculative.  Untainting is implicit when that root retires.

   Because STT identifies access instructions at rename, it must taint the
   output of *every* load — the conservatism ProtTrack's access predictor
   removes (Section VI-A2). *)

open Protean_ooo

let make () =
  let on_rename api (e : Rob_entry.t) =
    let inherited = Policy.inherited_taint api e in
    let self = if Rob_entry.is_load e then e.Rob_entry.seq else -1 in
    e.Rob_entry.access_at_rename <- Rob_entry.is_load e;
    e.Rob_entry.taint_root <- max inherited self
  in
  let transmit_frontier = Taint.sensitive_root in
  let may_resolve api (e : Rob_entry.t) =
    (not (Taint.sensitive_tainted api e))
    && ((not (Taint.resolves_from_memory e)) || not (Taint.own_load_tainted api e))
  in
  {
    Policy.unsafe with
    Policy.name = "access-track";
    on_rename;
    transmit_frontier;
    may_resolve;
  }
