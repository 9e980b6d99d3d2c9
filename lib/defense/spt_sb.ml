(* SPT-SB — SPT's secure baseline (Section III-C).

   Hardware-defined ProtSet: *all* architectural state; targets
   unrestricted code and is the only prior defense that fully secures it.
   Protection mechanism: XmitDelay — every transmitter is delayed (its
   execution for memory accesses and divisions, its resolution for
   branches) until it becomes non-speculative.  No taint tracking is
   needed, but nothing speculative ever transmits, which is why SPT-SB's
   overheads are the highest of the baselines. *)

open Protean_ooo

let make () =
  {
    Policy.unsafe with
    Policy.name = "spt-sb";
    transmit_frontier = (fun _ e -> e.Rob_entry.seq);
    may_resolve = (fun api e -> not (Policy.is_speculative api e));
  }
