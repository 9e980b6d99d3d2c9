(* AccessDelay — the protection mechanism of NDA and SpecShield
   (Section VI-A1).

   Hardware-defined ProtSet: all of memory, no registers; targets
   non-secret-accessing (ARCH) code.  Access instructions are loads.  They
   may execute and write back speculatively but may not wake up their
   dependents until they become non-speculative, so transiently-accessed
   data never reaches a transmitter.

   Its [forward_blocks] metric counts, per cycle, each source of a
   dependent that waits on a speculative load: the pipeline's
   [Stats.wakeup_delay_cycles]. *)

open Protean_ooo

let make () =
  {
    Policy.unsafe with
    Policy.name = "access-delay";
    forward_frontier =
      (fun _ (e : Rob_entry.t) ->
        if Rob_entry.is_load e then e.Rob_entry.seq else Policy.now);
    metrics =
      (fun st -> [ ("forward_blocks", st.Stats.wakeup_delay_cycles) ]);
  }
