(* ProtDelay (Section VI-B1): the delay-based enforcement of ProtISA
   ProtSets, extending AccessDelay.

   On ProtISA hardware, access instructions are instructions with
   protected register or memory inputs (Definition 1); access transmitters
   additionally have a protected *sensitive* input.

   Security extension over AccessDelay: access transmitters may not
   transmit their protected sensitive operand until non-speculative —
   AccessDelay would let `leak rax` transmit its own protected input.

   Performance relaxation over AccessDelay: only *unprefixed* access
   instructions delay the wakeup of their dependents.  A PROT-prefixed
   access writes a protected output, so its dependents are themselves
   access instructions that ProtDelay will delay as needed; they may
   safely execute speculatively (this is what makes PROTEAN-Delay fast on
   ProtCC-ARCH code, where dependent chains of unprotected loads flow
   freely).

   [selective_wakeup:false] disables the relaxation, approximating plain
   AccessDelay applied to ProtISA programs (the Section IX-A4 ablation).

   Metrics: [forward_blocks] counts, per cycle, each source of a
   dependent that waits on a speculative access (the pipeline's
   [Stats.wakeup_delay_cycles]); [selective_wakeup_passes] each forward
   the relaxation lets through while the access is still speculative. *)

open Protean_ooo

(* Protected *sensitive* register operand (access-transmitter test). *)
let protected_sensitive = Rob_entry.protected_sensitive_reg

(* Is [e] an access instruction: protected register input, or a load that
   read protected memory (known after execute via the LSQ bit, which is
   clear until then)? *)
let is_access (e : Rob_entry.t) =
  Rob_entry.protected_reg_input e
  || (Rob_entry.is_load e && e.Rob_entry.mem_prot)

let make ?(selective_wakeup = true) () =
  let n_selective_passes = ref 0 in
  let transmit_frontier _ (e : Rob_entry.t) =
    if protected_sensitive e then e.Rob_entry.seq else Policy.now
  in
  let may_resolve api (e : Rob_entry.t) =
    if Policy.is_speculative api e then
      (not (protected_sensitive e))
      && ((not (Taint.resolves_from_memory e)) || not e.Rob_entry.mem_prot)
    else true
  in
  let forward_frontier api (e : Rob_entry.t) =
    if not (is_access e) then Policy.now
    else if selective_wakeup && e.Rob_entry.out_prot then begin
      (* Accesses with protected outputs may wake their dependents
         immediately: the dependents are access instructions themselves
         and will be delayed as needed. *)
      if Policy.is_speculative api e then incr n_selective_passes;
      Policy.now
    end
    else e.Rob_entry.seq
  in
  {
    Policy.unsafe with
    Policy.name =
      (if selective_wakeup then "prot-delay" else "prot-delay-unselective");
    uses_protisa = true;
    transmit_frontier;
    may_resolve;
    forward_frontier;
    metrics =
      (fun st ->
        [
          ("forward_blocks", st.Stats.wakeup_delay_cycles);
          ("selective_wakeup_passes", !n_selective_passes);
        ]);
  }
