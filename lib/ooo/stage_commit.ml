(* In-order commit stage.

   Makes results architectural: memory writeback (allocating in the L1D
   via [Mem_hierarchy]), ProtISA's commit-side protection updates,
   register-file and rename-map release, predictor training, then the
   commit's bookkeeping (the policy's [on_commit], the timing trace,
   the counters and the measurement marker), the [On_commit] event and
   ROB removal.  A committing faulting instruction triggers a machine
   clear (counted and traced, then a full squash); committing HALT
   finishes the run. *)

open Protean_isa
open Protean_arch
module S = Pipeline_state

(* ProtISA commit-side updates (Section IV-C2): stores write their LSQ
   protection bit into the memory protection store ([Config.prot_mem]:
   the L1D's bits or the perfect ProtSet); unprefixed loads clear the
   protection of the bytes they accessed. *)
let commit_protisa_memory (t : S.t) (e : Rob_entry.t) =
  let store = Rob_entry.is_store e in
  if store || (Rob_entry.is_load e && not e.Rob_entry.out_prot) then begin
    let protected = store && e.Rob_entry.mem_prot in
    match t.S.cfg.Config.prot_mem with
    | Config.Prot_mem_l1d ->
        Cache.set_protection t.S.l1d e.Rob_entry.addr e.Rob_entry.msize
          ~protected
    | Config.Prot_mem_perfect ->
        Protset.set_mem (Option.get t.S.shadow_prot) e.Rob_entry.addr
          e.Rob_entry.msize ~protected
    | Config.Prot_mem_none -> ()
  end

(* Stores to this address mark the start of measurement (end of the
   benchmark's warmup phase). *)
let measurement_marker = 0x7770L

let commit_one (t : S.t) (e : Rob_entry.t) =
  (* Architectural effects. *)
  if Rob_entry.is_store e then begin
    Memory.write t.S.mem e.Rob_entry.addr e.Rob_entry.msize
      e.Rob_entry.mem_value;
    (* Writeback allocates in the L1D. *)
    ignore (Mem_hierarchy.access t e.Rob_entry.addr)
  end;
  commit_protisa_memory t e;
  let dsts = e.Rob_entry.dsts in
  for i = 0 to Array.length dsts - 1 do
    let ri = Reg.to_int dsts.(i) in
    t.S.regs.(ri) <- e.Rob_entry.dst_val.(i);
    t.S.reg_prot.(ri) <- e.Rob_entry.out_prot
  done;
  (* Release the rename-map mapping if this entry is still the youngest
     writer: the register reads [regs] from now on. *)
  for i = 0 to Array.length dsts - 1 do
    let ri = Reg.to_int dsts.(i) in
    if t.S.rmap_producer.(ri) = e.Rob_entry.seq then
      t.S.rmap_producer.(ri) <- -1
  done;
  (* Train predictors. *)
  (match e.Rob_entry.insn.Insn.op with
  | Insn.Jcc (_, target) ->
      Branch_pred.update_direction t.S.bp e.Rob_entry.pc
        (e.Rob_entry.actual_target = target && target <> e.Rob_entry.pc + 1)
  | Insn.Jmpi _ ->
      Branch_pred.update_indirect t.S.bp e.Rob_entry.pc
        e.Rob_entry.actual_target
  | _ -> ());
  t.S.policy.Policy.on_commit t.S.api e;
  if Hw_trace.enabled t.S.trace then
    Hw_trace.record t.S.trace
      (Hw_trace.E_timing
         {
           pc = e.Rob_entry.pc;
           fetch = e.Rob_entry.t_fetch;
           rename = e.Rob_entry.t_rename;
           issue = e.Rob_entry.t_issue;
           complete = e.Rob_entry.t_complete;
           commit = t.S.cycle;
         });
  let st = t.S.stats in
  if
    Rob_entry.is_store e
    && Int64.equal e.Rob_entry.addr measurement_marker
    && st.Stats.marker_cycle = 0
  then st.Stats.marker_cycle <- t.S.cycle;
  st.Stats.committed <- st.Stats.committed + 1;
  if S.wants t Hooks.k_commit then S.emit t (Hooks.On_commit e);
  (* Remove from the ROB (and the live load/store queues — a committing
     load/store is necessarily the front of its seq-ascending queue). *)
  t.S.rob.(t.S.head_idx) <- Rob_entry.null;
  t.S.head_idx <-
    (let i = t.S.head_idx + 1 in
     if i >= S.rob_size t then 0 else i);
  t.S.head_seq <- t.S.head_seq + 1;
  t.S.count <- t.S.count - 1;
  if Rob_entry.is_load e then Entryq.drop_front t.S.lsq_loads;
  if Rob_entry.is_store e then Entryq.drop_front t.S.lsq_stores;
  t.S.last_commit_cycle <- t.S.cycle;
  t.S.progress <- true;
  (* The entry is now out of every index and every inbound pointer is
     gone (seq references range-check against [head_seq]): recycle it. *)
  S.pool_put t e

let run (t : S.t) =
  let committed = ref 0 in
  let continue_ = ref true in
  while !continue_ && !committed < t.S.cfg.Config.commit_width && not t.S.done_
  do
    if t.S.count = 0 then continue_ := false
    else begin
      let e = t.S.rob.(t.S.head_idx) in
      if not e.Rob_entry.executed then continue_ := false
      else if e.Rob_entry.is_branch && not e.Rob_entry.resolved then
        (* The resolution stage handles it (at the head the policy must
           allow resolution: the branch is non-speculative). *)
        continue_ := false
      else begin
        let was_halt = e.Rob_entry.insn.Insn.op = Insn.Halt in
        let faulted = e.Rob_entry.fault in
        let next_pc = e.Rob_entry.pc + 1 in
        commit_one t e;
        incr committed;
        if was_halt then begin
          t.S.done_ <- true;
          continue_ := false
        end
        else if faulted then begin
          (* Division fault: machine clear (squash everything younger
             and refetch). *)
          t.S.stats.Stats.machine_clears <- t.S.stats.Stats.machine_clears + 1;
          if Hw_trace.enabled t.S.trace then
            Hw_trace.record t.S.trace
              (Hw_trace.E_machine_clear { cycle = t.S.cycle });
          Squash.flush t ~from_seq:t.S.head_seq ~new_pc:next_pc;
          continue_ := false
        end
      end
    end
  done
