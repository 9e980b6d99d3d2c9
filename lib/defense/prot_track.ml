(* ProtTrack (Section VI-B2): the tracking-based enforcement of ProtISA
   ProtSets, extending AccessTrack with

   - the access-transmitter delay (like ProtDelay): a transmitter with a
     protected sensitive operand stalls until non-speculative;
   - a secure access predictor: a 1-bit table indexed by load PC predicts
     at rename whether a load will read protected memory.  Loads predicted
     *no-access* with unprotected outputs are left untainted; everything
     else is tainted as in AccessTrack;
   - secure misprediction recovery: a false negative (predicted no-access
     but the load read protected memory) falls back to ProtDelay — the
     load's dependents are not woken until it is non-speculative, so
     protected data never propagates into untainted registers;
   - secure tainted store forwarding: an untainted load that forwards from
     a store of tainted data delays its wakeup of dependents until the
     store's data untaints.

   [predictor_entries = 0] gives an infinite (fully tagged) predictor for
   the Fig. 5 sensitivity study; [~predictor:false] disables it entirely,
   approximating AccessTrack on ProtISA programs (Section IX-A4). *)

open Protean_ooo

type predictor = {
  table : Bytes.t; (* 1 bit per entry, byte-encoded: 1 = access *)
  entries : int;
  infinite : (int, bool) Hashtbl.t option;
}

let predictor_create entries =
  if entries = 0 then
    { table = Bytes.empty; entries = 0; infinite = Some (Hashtbl.create 1024) }
  else
    (* Initialized to *access*: unseen loads are conservatively treated
       as accesses. *)
    { table = Bytes.make entries '\001'; entries; infinite = None }

let predictor_lookup p pc =
  match p.infinite with
  | Some h -> ( match Hashtbl.find_opt h pc with Some b -> b | None -> true)
  | None -> Bytes.get p.table (pc land (p.entries - 1)) = '\001'

let predictor_update p pc access =
  match p.infinite with
  | Some h -> Hashtbl.replace h pc access
  | None ->
      Bytes.set p.table (pc land (p.entries - 1)) (if access then '\001' else '\000')

let make ?(predictor = true) ?(predictor_entries = 1024) () =
  let pred = predictor_create predictor_entries in
  (* Policy-local counters, surfaced through [Policy.metrics]: the
     predictor split and the two recovery mechanisms the Stats record
     has no fields for. *)
  let n_taints = ref 0 in
  let n_pred_no_access = ref 0 in
  let n_late_access = ref 0 in
  let n_fwd_blocks = ref 0 in
  let on_rename api (e : Rob_entry.t) =
    let inherited = Policy.inherited_taint api e in
    let self_access =
      if Rob_entry.protected_reg_input e then true
      else if Rob_entry.is_load e then
        if not predictor then true (* AccessTrack: taint every load *)
        else begin
          api.Policy.stats.Stats.access_pred_lookups <-
            api.Policy.stats.Stats.access_pred_lookups + 1;
          let predicted_access = predictor_lookup pred e.Rob_entry.pc in
          if (not predicted_access) && not e.Rob_entry.out_prot then begin
            (* Predicted no-access with an unprotected output: leave the
               load untainted (Fig. 4b). *)
            e.Rob_entry.pred_no_access <- true;
            incr n_pred_no_access;
            false
          end
          else true
        end
      else false
    in
    e.Rob_entry.access_at_rename <- self_access;
    if self_access then incr n_taints;
    e.Rob_entry.taint_root <-
      max inherited (if self_access then e.Rob_entry.seq else -1)
  in
  let on_load_executed api (e : Rob_entry.t) =
    let actual_access = e.Rob_entry.mem_prot in
    if e.Rob_entry.pred_no_access && actual_access then begin
      (* False negative: fall back to ProtDelay for this load. *)
      e.Rob_entry.late_access <- true;
      incr n_late_access;
      api.Policy.stats.Stats.access_pred_false_negatives <-
        api.Policy.stats.Stats.access_pred_false_negatives + 1
    end;
    (* Secure tainted store forwarding (Section VI-B2c). *)
    if
      e.Rob_entry.fwd_from >= 0
      && (not e.Rob_entry.access_at_rename)
      && not e.Rob_entry.late_access
    then
      let st = api.Policy.peek e.Rob_entry.fwd_from in
      if
        (not (Rob_entry.is_null st))
        && Policy.root_speculative api st.Rob_entry.taint_root
      then begin
        e.Rob_entry.fwd_block_store <- st.Rob_entry.seq;
        incr n_fwd_blocks
      end
  in
  let may_forward api (e : Rob_entry.t) =
    if e.Rob_entry.late_access then not (Policy.is_speculative api e)
    else if e.Rob_entry.fwd_block_store >= 0 then
      let st = api.Policy.peek e.Rob_entry.fwd_block_store in
      if Rob_entry.is_null st then true
        (* the store committed: its data is architectural *)
      else not (Policy.root_speculative api st.Rob_entry.taint_root)
    else true
  in
  let transmit_frontier api (e : Rob_entry.t) =
    if Rob_entry.protected_sensitive_reg e then e.Rob_entry.seq
    else Int.min e.Rob_entry.seq (Taint.sensitive_root api e)
  in
  let may_resolve api (e : Rob_entry.t) =
    (not (Policy.is_speculative api e))
    || ((not (Taint.sensitive_tainted api e))
       && (not (Rob_entry.protected_sensitive_reg e))
       && ((not (Taint.resolves_from_memory e))
          || ((not (Taint.own_load_tainted api e))
             && not e.Rob_entry.mem_prot)))
  in
  let on_commit api (e : Rob_entry.t) =
    if Rob_entry.is_load e && predictor then begin
      let actual_access = e.Rob_entry.mem_prot in
      (* Paper metric (Fig. 5): mispredictions among retired unprefixed
         loads with unprotected outputs. *)
      if not e.Rob_entry.out_prot then begin
        let predicted_access = not e.Rob_entry.pred_no_access in
        if predicted_access <> actual_access then
          api.Policy.stats.Stats.access_pred_mispredicts <-
            api.Policy.stats.Stats.access_pred_mispredicts + 1
      end;
      predictor_update pred e.Rob_entry.pc actual_access
    end
  in
  let metrics () =
    [
      ("taints_applied", !n_taints);
      ("pred_no_access", !n_pred_no_access);
      ("protdelay_fallbacks", !n_late_access);
      ("tainted_fwd_blocks", !n_fwd_blocks);
    ]
  in
  {
    Policy.name = (if predictor then "prot-track" else "prot-track-nopred");
    uses_protisa = true;
    on_rename;
    transmit_frontier;
    may_forward;
    may_resolve;
    on_load_executed;
    on_commit;
    metrics;
  }
