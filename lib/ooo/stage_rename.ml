(* Rename/dispatch stage: drain the fetch buffer into the ROB.

   Owns the rename map (producer and protection per architectural
   register) and ROB/LSQ insertion.  It computes each entry's ProtISA
   output tag once, including the rule for unprefixed sub-register
   writes (Section IV-B1), and [Pipeline_state.rmap_define] writes it
   into the map.  Once the entry is in the ROB, the policy's
   [on_rename] taints it, then [On_rename] is emitted.

   Rename is also where the O(active) scheduler learns about an entry:
   it joins the branch/store/load queues as applicable, and its slot's
   ready bit is set — unless every non-ready source has an un-executed
   in-flight producer, in which case the entry is parked *dormant* on
   those producers' wakeup chains with its bit clear.  The issue scan
   will not look at it until a producer executes, which is cycle-exact
   because such an entry could neither issue nor emit anything. *)

open Protean_isa
module S = Pipeline_state

(* Register [e]'s wakeup-chain memberships: every non-ready source slot
   whose producer is in flight and un-executed joins that producer's
   waiter chain (cleared again when the producer executes or a squash
   flushes [e]).  Returns true when *every* non-ready source is such a
   slot: [e] is then dormant, and the issue scan skips it until a
   producer executes.  An already-executed producer keeps the entry
   active: its forward may be policy-gated, which must count a wakeup
   delay every cycle the entry is considered. *)
let register_waiters (t : S.t) (e : Rob_entry.t) =
  let n = Array.length e.Rob_entry.src_ready in
  let pending = ref false in
  let executed_producer = ref false in
  for i = 0 to n - 1 do
    if not e.Rob_entry.src_ready.(i) then begin
      let p = S.peek t e.Rob_entry.src_producer.(i) in
      if Rob_entry.is_null p || p.Rob_entry.executed then
        executed_producer := true
      else begin
        pending := true;
        e.Rob_entry.wl_next.(i) <- p.Rob_entry.waiters;
        e.Rob_entry.wl_slot.(i) <- p.Rob_entry.waiters_slot;
        p.Rob_entry.waiters <- e;
        p.Rob_entry.waiters_slot <- i
      end
    end
  done;
  !pending && not !executed_producer

(* [insn] is the decode of [item.f_pc], re-derived by [run] — the fetch
   slot itself carries only ints. *)
let rename_one (t : S.t) (item : S.fetch_item) (insn : Insn.t) =
  let pc = item.S.f_pc in
  let seq = t.S.head_seq + t.S.count in
  let e =
    if Program.in_bounds t.S.program pc then begin
      (* Recycle a dead entry for this pc when one is pooled (the common
         case in steady-state loops); [Rob_entry.reset] makes it
         bit-identical to a fresh allocation. *)
      let p = S.pool_take t pc insn in
      if not (Rob_entry.is_null p) then begin
        Rob_entry.reset p ~seq ~t_fetch:item.S.f_fetched;
        p
      end
      else
        Rob_entry.create ~srcs:t.S.tmpl_srcs.(pc) ~dsts:t.S.tmpl_dsts.(pc) ~seq
          ~pc ~insn ~t_fetch:item.S.f_fetched ()
    end
    else Rob_entry.create ~seq ~pc ~insn ~t_fetch:item.S.f_fetched ()
  in
  e.Rob_entry.t_rename <- t.S.cycle;
  (* Read sources through the rename map. *)
  let srcs = e.Rob_entry.srcs in
  for i = 0 to Array.length srcs - 1 do
    let r, _role = srcs.(i) in
    let ri = Reg.to_int r in
    let producer = t.S.rmap_producer.(ri) in
    e.Rob_entry.src_producer.(i) <- producer;
    e.Rob_entry.src_prot.(i) <- t.S.rmap_prot.(ri);
    if producer < 0 then begin
      e.Rob_entry.src_val.(i) <- t.S.regs.(ri);
      e.Rob_entry.src_ready.(i) <- true
    end
  done;
  (* ProtISA output tag: PROT-prefixed instructions protect their outputs;
     an unprefixed sub-register write keeps its destination's protection
     (Section IV-B1). *)
  e.Rob_entry.out_prot <-
    (match insn.Insn.op with
    | (Insn.Mov (Insn.W8, d, _) | Insn.Load (Insn.W8, d, _))
      when not insn.Insn.prot ->
        t.S.rmap_prot.(Reg.to_int d)
    | _ -> insn.Insn.prot);
  S.rmap_define t e;
  (* Branch prediction bookkeeping. *)
  if e.Rob_entry.is_branch then
    e.Rob_entry.pred_target <- item.S.f_pred_target;
  (* Insert into the ROB at [seq]'s slot. *)
  let idx = S.idx_of_seq t seq in
  t.S.rob.(idx) <- e;
  t.S.count <- t.S.count + 1;
  if Rob_entry.is_load e then Entryq.push t.S.lsq_loads e;
  if Rob_entry.is_store e then Entryq.push t.S.lsq_stores e;
  (* Scheduler indexes. *)
  if e.Rob_entry.is_branch then begin
    S.bq_push t e;
    if S.wants t Hooks.k_window_open then S.emit t (Hooks.On_window_open e)
  end;
  if not (register_waiters t e) then S.ready_set t idx;
  t.S.progress <- true;
  t.S.policy.Policy.on_rename t.S.api e;
  if S.wants t Hooks.k_rename then S.emit t (Hooks.On_rename e)

let run (t : S.t) =
  let renamed = ref 0 in
  let continue_ = ref true in
  while !continue_ && !renamed < t.S.cfg.Config.rename_width do
    if S.fb_is_empty t then continue_ := false
    else begin
      let item = S.fb_peek t in
      if item.S.f_ready > t.S.cycle || S.rob_full t then continue_ := false
      else begin
        let pc = item.S.f_pc in
        let insn =
          if Program.in_bounds t.S.program pc then Program.insn t.S.program pc
          else S.halt_insn
        in
        let is_ld = Insn.is_load insn.Insn.op in
        let is_st = Insn.is_store insn.Insn.op in
        if
          (is_ld && Entryq.length t.S.lsq_loads >= t.S.cfg.Config.lq_size)
          || (is_st && Entryq.length t.S.lsq_stores >= t.S.cfg.Config.sq_size)
        then continue_ := false
        else begin
          ignore (S.fb_pop t);
          rename_one t item insn;
          incr renamed
        end
      end
    end
  done
