(* Issue/execute and branch-resolution stages.

   Dynamic issue under the policy's transmitter/wakeup/resolution gates:
   wakeup (source readiness through [forward_frontier]), dispatch of ready
   instructions up to [issue_width], per-opcode execution including the
   load/store paths (store-to-load forwarding, memory-order speculation
   with MDP-guided stalls, hierarchy walks via [Mem_hierarchy]), and
   delayed branch resolution with at most one squash per cycle.

   Cost model (the O(active) scheduler): the per-cycle work is
   - [tick]: one pass over the in-flight deque (issued, not executed),
   - the issue scan: the ready-bit vector ([Pipeline_state.ready_next])
     in seq order from the ROB head, one read per word plus one visit
     per set bit (an unissued entry neither dormant nor parked),
     breaking once [issue_width] is spent,
   - the parked sets: a transmitter the execution gate refuses waits in
     [held] until the speculation frontier reaches the gate's value, and
     a consumer whose forward the forwarding gate refuses waits in
     [fwd_wait] until it reaches the least refused value or one of its
     un-executed producers completes (for each, a compare per cycle
     against the least value, a walk of the set's bits when the
     frontier reaches it); a load the MDP holds back waits in
     [mdp_wait] until a store resolves its address,
   - [resolve]: three passes over the unresolved-branch list.
   None of these ever visits a dormant, parked, executed-but-uncommitted
   or committed entry, so cost tracks active instructions, not ROB
   capacity.  The traversal orders equal the old full-ring scans' (both
   seq-ascending), so every issue, squash and emission happens in the
   same cycle as under a scan of every unissued entry — asserted
   bit-for-bit by the golden corpus and the pinned counters, and
   cross-checked against brute-force ring scans by
   [Invariants.attach_sched].  The one reordering: a parked entry counts
   its stalls, and emits [On_exec_blocked] or [On_wakeup_blocked], at
   the end of the scan (in seq order) in each cycle the scan would have
   reached it.  No helper here builds a closure or an option.

   Bookkeeping happens at each site: the [Stats] counters (a denied
   wakeup, execution or resolution per cycle, executed loads, order
   violations, mispredicts, port binding and stalls, writeback
   deferrals), the policy's [on_load_executed] and the divider's trace
   event.  For optional tooling the stage then emits
   [On_wakeup_blocked], [On_exec_blocked], [On_resolve_blocked],
   [On_load_executed], [On_order_violation] and the speculation-window
   events. *)

open Protean_isa
open Protean_arch
module S = Pipeline_state

(* Copy the value produced for register [r] by entry [p] into
   [e.src_val.(i)] (no-op when [p] does not write [r], matching the old
   [producer_value] returning [None]), trying [p]'s destinations from
   [j] on. *)
let rec copy_producer_value (p : Rob_entry.t) r (e : Rob_entry.t) i j =
  if j < Array.length p.Rob_entry.dsts then
    if Reg.equal p.Rob_entry.dsts.(j) r then
      e.Rob_entry.src_val.(i) <- p.Rob_entry.dst_val.(j)
    else copy_producer_value p r e i (j + 1)

(* Try to make all of [e]'s sources ready; returns true when they are.
   Values from in-flight producers are only visible once the producer has
   executed *and* the frontier has reached its forwarding gate (the
   AccessDelay / ProtDelay wakeup-gating point).

   Side effects on the scheduler, when some source stays non-ready:
   - the forwarding gate refused a source: the entry parks in [fwd_wait]
     with the least refused answer as threshold and the refused sources
     as its stalls, which [count_parked] counts (with the
     [On_wakeup_blocked] events) in each cycle the scan would have come
     back to it.  It returns to [ready] when the frontier reaches the
     threshold or an un-executed producer completes ([complete_entry]);
     until then every answer holds, and re-asking would count the same;
   - otherwise every remaining non-ready source is waiting on an
     un-executed producer — the entry goes dormant (its bit at [slot] is
     cleared) and the issue scan skips it until [tick] wakes it.
     Skipping is exact: for such an entry this function is pure and
     false (no emission, no mutation), and each of those sources
     already sits in its producer's wakeup chain (registered at rename,
     membership cleared only by the producer executing), so the *first*
     producer to execute wakes the entry.
   No chain registration happens here. *)
let sources_ready (t : S.t) (e : Rob_entry.t) slot =
  let ap = t.S.api in
  let ready = e.Rob_entry.src_ready in
  let n = Array.length ready in
  let all = ref true in
  let refused = ref 0 in
  let least = ref Policy.never in
  for i = 0 to n - 1 do
    if not ready.(i) then begin
      let r, _ = e.Rob_entry.srcs.(i) in
      let prod = S.peek t e.Rob_entry.src_producer.(i) in
      if Rob_entry.is_null prod then begin
        (* Producer committed: its value is in the architectural
           register file (no younger writer can have committed). *)
        e.Rob_entry.src_val.(i) <- t.S.regs.(Reg.to_int r);
        ready.(i) <- true;
        t.S.progress <- true
      end
      else if prod.Rob_entry.executed then begin
        let thr = t.S.policy.Policy.forward_frontier ap prod in
        if thr <= S.frontier t then begin
          copy_producer_value prod r e i 0;
          ready.(i) <- true;
          t.S.progress <- true
        end
        else begin
          incr refused;
          if thr < !least then least := thr;
          all := false
        end
      end
      else all := false
    end
  done;
  if !refused > 0 then S.park t t.S.fwd_wait slot !least !refused
  else if not !all then begin
    S.ready_clear t slot;
    t.S.progress <- true
  end;
  !all

let src_value (e : Rob_entry.t) reg role =
  let i = Rob_entry.find_src e reg role in
  if i >= 0 then e.Rob_entry.src_val.(i)
  else invalid_arg "Pipeline.src_value: operand not found"

(* Value of a [src] operand (register via the renamed sources, or an
   immediate). *)
let operand_value (e : Rob_entry.t) (s : Insn.src) role =
  match s with Insn.Imm v -> v | Insn.Reg r -> src_value e r role

let old_of e r = src_value e r Insn.Data
let opt_src_value e role = function Some r -> src_value e r role | None -> 0L

(* [Sem.effective_address] over the renamed sources of [role], written
   out so that no [read] closure is built per access. *)
let ea_of (e : Rob_entry.t) (m : Insn.mem) role =
  Int64.add
    (Int64.add
       (opt_src_value e role m.Insn.base)
       (Int64.mul (opt_src_value e role m.Insn.index) (Int64.of_int m.Insn.scale)))
    (Int64.of_int m.Insn.disp)

let alu_latency (t : S.t) (op : Insn.op) =
  match op with
  | Insn.Binop (Insn.Mul, _, _) -> t.S.cfg.Config.mul_latency
  | _ -> t.S.cfg.Config.alu_latency

let rec set_dst_from (e : Rob_entry.t) r v i =
  if i < Array.length e.Rob_entry.dsts then
    if Reg.equal e.Rob_entry.dsts.(i) r then e.Rob_entry.dst_val.(i) <- v
    else set_dst_from e r v (i + 1)

let set_dst e r v = set_dst_from e r v 0

(* A load, pop or ret read memory or the LSQ: the policy learns it
   first, then the counters (only true loads carry the protected-access
   statistic), then optional tooling. *)
let load_executed (t : S.t) (e : Rob_entry.t) =
  t.S.policy.Policy.on_load_executed t.S.api e;
  let st = t.S.stats in
  st.Stats.loads_executed <- st.Stats.loads_executed + 1;
  (match e.Rob_entry.insn.Insn.op with
  | Insn.Load _ when e.Rob_entry.mem_prot ->
      st.Stats.loads_protected_mem <- st.Stats.loads_protected_mem + 1
  | _ -> ());
  if S.wants t Hooks.k_load_executed then S.emit t (Hooks.On_load_executed e)

(* A load, pop or ret reads the [size] bytes at [addr]: from the
   youngest older store that covers them, or from memory, reading the
   L1D's protection bits before the hierarchy walk fills the line.  Sets
   the entry's LSQ state, [mem_value] and latency; false when an
   overlapping older store cannot forward yet. *)
let mem_read (t : S.t) (e : Rob_entry.t) addr size =
  match Stage_memory.forward_search t e addr size with
  | Stage_memory.Fwd_wait -> false
  | Stage_memory.Fwd_value st ->
      e.Rob_entry.addr <- addr;
      e.Rob_entry.msize <- size;
      e.Rob_entry.fwd_from <- st.Rob_entry.seq;
      e.Rob_entry.mem_value <- Stage_memory.forwarded_value st addr size;
      e.Rob_entry.mem_prot <- st.Rob_entry.mem_prot;
      e.Rob_entry.cycles_left <- t.S.cfg.Config.store_forward_latency;
      true
  | Stage_memory.Fwd_none ->
      e.Rob_entry.addr <- addr;
      e.Rob_entry.msize <- size;
      e.Rob_entry.mem_value <- Memory.read t.S.mem addr size;
      e.Rob_entry.mem_prot <- S.l1d_protected t addr size;
      e.Rob_entry.cycles_left <-
        t.S.cfg.Config.load_agu_latency + Mem_hierarchy.access t addr;
      true

(* A store, push or call writes [v] to the [size] bytes at [addr]; its
   LSQ protection bit is [prot].  The data reaches memory at commit. *)
let mem_write (t : S.t) (e : Rob_entry.t) addr size v prot =
  e.Rob_entry.addr <- addr;
  e.Rob_entry.msize <- size;
  e.Rob_entry.mem_value <- v;
  e.Rob_entry.mem_prot <- prot;
  ignore (Tlb.access t.S.tlb addr);
  e.Rob_entry.cycles_left <- 1

(* The protection tag of a store's data operand. *)
let data_prot (e : Rob_entry.t) (s : Insn.src) =
  match s with
  | Insn.Reg r ->
      let i = Rob_entry.find_src e r Insn.Data in
      i >= 0 && e.Rob_entry.src_prot.(i)
  | Insn.Imm _ -> false

(* Begin executing [e]; all sources are ready.  Returns false when the
   instruction could not start (e.g. a load waiting on a store).  Sets
   [cycles_left]; results are computed here and become architectural when
   the entry commits. *)
let start_execution (t : S.t) (e : Rob_entry.t) =
  let insn = e.Rob_entry.insn in
  let started = ref true in
  (match insn.Insn.op with
  | Insn.Nop | Insn.Halt -> e.Rob_entry.cycles_left <- 1
  | Insn.Mov (w, d, s) ->
      let v = operand_value e s Insn.Data in
      let old = match w with Insn.W8 -> old_of e d | _ -> 0L in
      set_dst e d (Sem.apply_width w ~old v);
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Lea (d, m) ->
      set_dst e d (ea_of e m Insn.Data);
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Binop (o, d, s) ->
      let r, fl = Sem.eval_binop o (old_of e d) (operand_value e s Insn.Data) in
      set_dst e d r;
      set_dst e Reg.flags fl;
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Unop (o, d) ->
      let r, fl = Sem.eval_unop o (old_of e d) in
      set_dst e d r;
      set_dst e Reg.flags fl;
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Div (d, n, s) | Insn.Rem (d, n, s) ->
      let nv = src_value e n Insn.Divide in
      let dv = operand_value e s Insn.Divide in
      let lat =
        if Int64.equal dv 0L then t.S.cfg.Config.div_base_latency
        else t.S.cfg.Config.div_base_latency + (Sem.bit_length nv / 8)
      in
      if Hw_trace.enabled t.S.trace then
        Hw_trace.record t.S.trace
          (Hw_trace.E_div_busy { cycle = t.S.cycle; latency = lat });
      if Int64.equal dv 0L then begin
        e.Rob_entry.fault <- true;
        set_dst e d Int64.minus_one
      end
      else begin
        let q =
          match insn.Insn.op with
          | Insn.Div _ -> Sem.eval_div nv dv
          | _ -> Sem.eval_rem nv dv
        in
        set_dst e d q
      end;
      e.Rob_entry.cycles_left <- lat
  | Insn.Cmp (a, s) ->
      set_dst e Reg.flags
        (Sem.eval_cmp (src_value e a Insn.Data) (operand_value e s Insn.Data));
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Test (a, s) ->
      set_dst e Reg.flags
        (Sem.eval_test (src_value e a Insn.Data) (operand_value e s Insn.Data));
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Setcc (c, d) ->
      let fl = src_value e Reg.flags Insn.Cond_in in
      set_dst e d (if Sem.eval_cond c fl then 1L else 0L);
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Cmov (c, d, s) ->
      let fl = src_value e Reg.flags Insn.Cond_in in
      let v =
        if Sem.eval_cond c fl then operand_value e s Insn.Data else old_of e d
      in
      set_dst e d v;
      e.Rob_entry.cycles_left <- alu_latency t insn.Insn.op
  | Insn.Jcc (c, target) ->
      let fl = src_value e Reg.flags Insn.Cond_in in
      e.Rob_entry.actual_target <-
        (if Sem.eval_cond c fl then target else e.Rob_entry.pc + 1);
      e.Rob_entry.cycles_left <- 1
  | Insn.Jmp target ->
      e.Rob_entry.actual_target <- target;
      e.Rob_entry.cycles_left <- 1
  | Insn.Jmpi r ->
      e.Rob_entry.actual_target <- Int64.to_int (src_value e r Insn.Target);
      e.Rob_entry.cycles_left <- 1
  | Insn.Load (w, d, m) ->
      started := mem_read t e (ea_of e m Insn.Addr) (Insn.width_bytes w);
      if !started then begin
        let old = match w with Insn.W8 -> old_of e d | _ -> 0L in
        set_dst e d (Sem.apply_width w ~old e.Rob_entry.mem_value);
        load_executed t e
      end
  | Insn.Store (w, m, s) ->
      mem_write t e (ea_of e m Insn.Addr) (Insn.width_bytes w)
        (Sem.truncate_width w (operand_value e s Insn.Data))
        (data_prot e s)
  | Insn.Push s ->
      let addr = Int64.sub (src_value e Reg.rsp Insn.Addr) 8L in
      mem_write t e addr 8 (operand_value e s Insn.Data) (data_prot e s);
      set_dst e Reg.rsp addr
  | Insn.Call target ->
      let addr = Int64.sub (src_value e Reg.rsp Insn.Addr) 8L in
      mem_write t e addr 8 (Int64.of_int (e.Rob_entry.pc + 1)) false;
      set_dst e Reg.rsp addr;
      e.Rob_entry.actual_target <- target
  | Insn.Pop d ->
      let sp = src_value e Reg.rsp Insn.Addr in
      started := mem_read t e sp 8;
      if !started then begin
        set_dst e d e.Rob_entry.mem_value;
        set_dst e Reg.rsp (Int64.add sp 8L);
        load_executed t e
      end
  | Insn.Ret ->
      let sp = src_value e Reg.rsp Insn.Addr in
      started := mem_read t e sp 8;
      if !started then begin
        set_dst e Reg.tmp e.Rob_entry.mem_value;
        set_dst e Reg.rsp (Int64.add sp 8L);
        e.Rob_entry.actual_target <- Int64.to_int e.Rob_entry.mem_value;
        load_executed t e
      end);
  if !started then begin
    e.Rob_entry.issued <- true;
    e.Rob_entry.t_issue <- t.S.cycle;
    t.S.progress <- true;
    (* A store whose address just resolved releases the loads the MDP
       holds, and may expose a memory-order violation by a younger,
       already-executed load. *)
    if Rob_entry.is_store e then begin
      if t.S.mdp_count > 0 then S.mdp_release t;
      let ld = Stage_memory.check_order_violation t e in
      if not (Rob_entry.is_null ld) then begin
        t.S.stats.Stats.mem_order_violations <-
          t.S.stats.Stats.mem_order_violations + 1;
        if S.wants t Hooks.k_order_violation then
          S.emit t (Hooks.On_order_violation { store = e; load = ld });
        Stage_memory.mdp_flag t ld.Rob_entry.pc;
        Squash.flush t ~from_seq:ld.Rob_entry.seq ~new_pc:ld.Rob_entry.pc
      end
    end
  end;
  !started

(* Complete [e]: mark it executed and wake the consumers parked on its
   wakeup chain (clear their chain memberships, take them out of
   [fwd_wait] and set their ready bits, so they rejoin the issue scan
   from this cycle on). *)
let complete_entry (t : S.t) (e : Rob_entry.t) =
  e.Rob_entry.executed <- true;
  e.Rob_entry.t_complete <- t.S.cycle;
  t.S.progress <- true;
  let c = ref e.Rob_entry.waiters in
  let s = ref e.Rob_entry.waiters_slot in
  e.Rob_entry.waiters <- Rob_entry.null;
  while not (Rob_entry.is_null !c) do
    let cur = !c and slot = !s in
    c := cur.Rob_entry.wl_next.(slot);
    s := cur.Rob_entry.wl_slot.(slot);
    cur.Rob_entry.wl_next.(slot) <- Rob_entry.null;
    cur.Rob_entry.wl_slot.(slot) <- -1;
    let i = S.idx_of_seq t cur.Rob_entry.seq in
    if S.fwd_mem t i then S.unpark t.S.fwd_wait i;
    S.ready_set t i
  done

(* Tick the in-flight set: decrement, mark executed at zero, wake the
   dormant consumers parked on the completing producer, and compact the
   deque in place.  Runs before the issue scan, which is exact because
   every producer is strictly older than its consumers: in the old
   interleaved full-ring pass, a producer's tick always preceded its
   consumers' wakeup checks within the same cycle.

   Under a bounded writeback budget ([Config.ports] with [wb_width] > 0)
   at most [wb_width] finished computations broadcast per cycle, oldest
   sequence numbers first; the rest stay in the deque (cycles_left <= 0,
   still issued-and-unexecuted, so every scheduler invariant holds and
   their consumers stay correctly dormant) and contend again next
   cycle.  Each deferred completion counts in
   [Stats.wb_queue_stall_cycles]. *)
let tick (t : S.t) =
  let q = t.S.inflight in
  let a = q.Entryq.a in
  let front = q.Entryq.front and back = q.Entryq.back in
  let wb_budget =
    match t.S.cfg.Config.ports with
    | None -> 0
    | Some pc -> pc.Config.wb_width
  in
  if wb_budget <= 0 then begin
    (* Unbounded broadcast: the historical single compacting pass. *)
    let w = ref front in
    for i = front to back - 1 do
      let e = a.(i) in
      e.Rob_entry.cycles_left <- e.Rob_entry.cycles_left - 1;
      if e.Rob_entry.cycles_left <= 0 then complete_entry t e
      else begin
        a.(!w) <- e;
        incr w
      end
    done;
    for i = !w to back - 1 do
      a.(i) <- Rob_entry.null
    done;
    q.Entryq.back <- !w
  end
  else begin
    (* Decrement everything first; candidates are entries whose
       computation has finished (including ones deferred earlier). *)
    for i = front to back - 1 do
      let e = a.(i) in
      e.Rob_entry.cycles_left <- e.Rob_entry.cycles_left - 1
    done;
    (* Grant the broadcast slots oldest-seq-first: up to [wb_budget]
       selection passes over the deque (the deque is in issue order, not
       seq order).  Completing marks the entry executed, which both
       excludes it from later passes and lets the compaction below drop
       it. *)
    let granted = ref 0 in
    let continue_ = ref true in
    while !granted < wb_budget && !continue_ do
      let best = ref Rob_entry.null in
      for i = front to back - 1 do
        let e = a.(i) in
        if
          (not e.Rob_entry.executed)
          && e.Rob_entry.cycles_left <= 0
          && (Rob_entry.is_null !best
             || e.Rob_entry.seq < !best.Rob_entry.seq)
        then best := e
      done;
      if Rob_entry.is_null !best then continue_ := false
      else begin
        complete_entry t !best;
        incr granted
      end
    done;
    (* Compact: drop completed entries, keep running and deferred ones
       (a kept entry with cycles_left <= 0 lost the broadcast race). *)
    let w = ref front in
    for i = front to back - 1 do
      let e = a.(i) in
      if not e.Rob_entry.executed then begin
        if e.Rob_entry.cycles_left <= 0 then begin
          (* Deferred completion: the per-cycle [wb_queue_stall_cycles]
             accounting makes this cycle (and every cycle until the
             broadcast slot is won) unskippable. *)
          t.S.progress <- true;
          t.S.stats.Stats.wb_queue_stall_cycles <-
            t.S.stats.Stats.wb_queue_stall_cycles + 1
        end;
        a.(!w) <- e;
        incr w
      end
    done;
    for i = !w to back - 1 do
      a.(i) <- Rob_entry.null
    done;
    q.Entryq.back <- !w
  end

(* Lowest-numbered execution port that can accept an instruction of
   class [cls] this cycle: capability match, not already bound this
   cycle, and not held across cycles by an unpipelined computation.
   Returns -1 when every compatible port is occupied (a structural
   stall).  Lowest-first selection is deterministic and mirrors
   hardware's fixed port-arbitration priority.  [i] is the port to try
   next. *)
let rec find_port (t : S.t) (pc : Config.port_cfg) cls i =
  if i >= Array.length pc.Config.port_caps then -1
  else if
    Config.port_can pc i cls
    && (not t.S.port_used.(i))
    && t.S.port_busy_until.(i) <= t.S.cycle
  then i
  else find_port t pc cls (i + 1)

(* Is the transmitter [e] refused by the execution gate?  Then it parks
   in [held] until the frontier reaches the gate's value. *)
let refused (t : S.t) ap (e : Rob_entry.t) slot =
  let thr = t.S.policy.Policy.transmit_frontier ap e in
  thr > S.frontier t
  && begin
       S.park t t.S.held slot thr 1;
       true
     end

(* [On_wakeup_blocked] for each source of the forward-parked [e] from
   [i] on whose producer executed: the sources its forward waits for. *)
let rec emit_wakeup_blocked (t : S.t) (e : Rob_entry.t) i =
  if i < Array.length e.Rob_entry.src_ready then begin
    if not e.Rob_entry.src_ready.(i) then begin
      let prod = S.peek t e.Rob_entry.src_producer.(i) in
      if prod.Rob_entry.executed then
        S.emit t (Hooks.On_wakeup_blocked { consumer = e; producer = prod })
    end;
    emit_wakeup_blocked t e (i + 1)
  end

(* The stalls of the entries of [p] at offsets in [off, cutoff), added
   to [n], in seq order; [emit] wakes their blocked events. *)
let rec walk_parked (t : S.t) (p : S.parked) off cutoff emit n =
  let o = S.bit_next t p.S.bits off cutoff in
  if o < 0 then n
  else begin
    let slot = S.idx_of_seq t (t.S.head_seq + o) in
    if emit then begin
      let e = t.S.rob.(slot) in
      if p == t.S.held then S.emit t (Hooks.On_exec_blocked e)
      else emit_wakeup_blocked t e 0
    end;
    walk_parked t p (o + 1) cutoff emit (n + p.S.stalls.(slot))
  end

(* A parked entry counts its stalls, and wakes its blocked events (of
   kind [k]), in every cycle the issue scan would have reached it had it
   stayed in [ready]: every entry of [p], or those below offset [cutoff]
   when the issue width filled there.  A counted stall marks progress. *)
let parked_stalls (t : S.t) (p : S.parked) cutoff k =
  if p.S.count = 0 then 0
  else begin
    let emit = S.wants t k in
    let n =
      if cutoff < 0 && not emit then p.S.total
      else walk_parked t p 0 (if cutoff < 0 then t.S.count else cutoff) emit 0
    in
    if n > 0 then t.S.progress <- true;
    n
  end

(* After the scan: a held transmitter counts a
   [transmitter_stall_cycles] cycle, a forward-parked consumer a
   [wakeup_delay_cycles] cycle per refused source. *)
let count_parked (t : S.t) cutoff =
  let st = t.S.stats in
  st.Stats.transmitter_stall_cycles <-
    st.Stats.transmitter_stall_cycles
    + parked_stalls t t.S.held cutoff Hooks.k_exec_blocked;
  st.Stats.wakeup_delay_cycles <-
    st.Stats.wakeup_delay_cycles
    + parked_stalls t t.S.fwd_wait cutoff Hooks.k_wakeup_blocked

let run (t : S.t) =
  tick t;
  let ap = t.S.api in
  let width = t.S.cfg.Config.issue_width in
  let pcfg = t.S.cfg.Config.ports in
  (match pcfg with
  | None -> ()
  | Some _ -> Array.fill t.S.port_used 0 (Array.length t.S.port_used) false);
  (let f = S.frontier t in
   if t.S.held.S.least <= f then S.release t t.S.held f;
   if t.S.fwd_wait.S.least <= f then S.release t t.S.fwd_wait f);
  let issued = ref 0 in
  let cutoff = ref (-1) in
  let n = S.rob_size t in
  let off = ref (S.ready_next t 0) in
  while !off >= 0 && !issued < width do
    let slot =
      let i = t.S.head_idx + !off in
      if i >= n then i - n else i
    in
    let e = t.S.rob.(slot) in
    if sources_ready t e slot then begin
      if Rob_entry.execution_gated e && refused t ap e slot then ()
      else if
        Rob_entry.is_load e
        && Stage_memory.mdp_flagged t e.Rob_entry.pc
        && Stage_memory.older_store_addr_unknown t e
      then S.mdp_park t slot (* memory-dependence predictor: wait for stores *)
      else begin
        (* Structural port arbitration: a ready entry must win a
           compatible free port before it may start.  Losing does not
           consume an issue slot — a younger entry of another class may
           still issue behind it this cycle.  The port is claimed only
           after [start_execution] succeeds (a load parked on Fwd_wait
           holds neither a slot nor a port). *)
        let port =
          match pcfg with
          | None -> 0
          | Some pc -> find_port t pc (Rob_entry.op_class e) 0
        in
        if port < 0 then begin
          t.S.progress <- true;
          t.S.stats.Stats.port_structural_stall_cycles <-
            t.S.stats.Stats.port_structural_stall_cycles + 1
        end
        else if start_execution t e then begin
          incr issued;
          (match pcfg with
          | None -> ()
          | Some pc ->
              e.Rob_entry.port <- port;
              t.S.port_used.(port) <- true;
              if
                not
                  pc.Config.cls_pipelined.(Config.op_class_index
                                             (Rob_entry.op_class e))
              then
                t.S.port_busy_until.(port) <-
                  t.S.cycle + e.Rob_entry.cycles_left;
              Stats.bump_port_busy t.S.stats port);
          S.ready_clear t slot;
          Entryq.push t.S.inflight e;
          if !issued >= width then cutoff := !off
        end
      end
    end;
    (* [ready_next] re-reads [count]: a store issuing above may have
       squashed from a younger load's seq, and the walk then ends at the
       last survivor, exactly where the old bounded ring scan stopped
       (flushed slots read as empty). *)
    off := S.ready_next t (!off + 1)
  done;
  count_parked t !cutoff

(* Resolve branches: confirm correctly-predicted ones and initiate at most
   one squash per cycle from the oldest eligible misprediction.  All three
   passes walk the unresolved-branch list in seq order — the same entries,
   in the same order, as the old full-ring scans (every list member is a
   live unresolved branch and vice versa).

   With [squash_bug] set, the stage instead considers the oldest
   *detected* misprediction regardless of whether the policy allows it to
   resolve — so an older protected/tainted branch can block a younger
   unprotected one from squashing, a secret-dependent timing difference
   (the corner case AMuLeT* found in STT/SPT/SPT-SB, Section VII-B4b). *)
let resolve (t : S.t) =
  let ap = t.S.api in
  (* Confirm correct predictions (no squash needed).  Resolving unlinks
     the entry, which immediately moves the CONTROL frontier — the same
     mid-pass visibility the memo-invalidation used to give. *)
  let cursor = ref t.S.bq_head in
  while not (Rob_entry.is_null !cursor) do
    let e = !cursor in
    let next = e.Rob_entry.bq_next in
    if
      e.Rob_entry.executed
      && (not e.Rob_entry.mispredicted)
      && e.Rob_entry.actual_target = e.Rob_entry.pred_target
    then
      if t.S.policy.Policy.may_resolve ap e then begin
        e.Rob_entry.resolved <- true;
        S.bq_unlink t e;
        t.S.progress <- true;
        if S.wants t Hooks.k_window_close then
          S.emit t
            (Hooks.On_window_close { entry = e; cause = Hooks.W_resolved })
      end
      else begin
        t.S.progress <- true;
        t.S.stats.Stats.resolution_delay_cycles <-
          t.S.stats.Stats.resolution_delay_cycles + 1;
        if S.wants t Hooks.k_resolve_blocked then
          S.emit t (Hooks.On_resolve_blocked e)
      end;
    cursor := next
  done;
  (* Detect mispredictions. *)
  let cursor = ref t.S.bq_head in
  while not (Rob_entry.is_null !cursor) do
    let e = !cursor in
    if
      e.Rob_entry.executed
      && e.Rob_entry.actual_target <> e.Rob_entry.pred_target
      && not e.Rob_entry.mispredicted
    then begin
      e.Rob_entry.mispredicted <- true;
      t.S.progress <- true
    end;
    cursor := e.Rob_entry.bq_next
  done;
  (* Oldest eligible misprediction wins the squash slot. *)
  let candidate = ref Rob_entry.null in
  (try
     let cursor = ref t.S.bq_head in
     while not (Rob_entry.is_null !cursor) do
       let e = !cursor in
       let next = e.Rob_entry.bq_next in
       if e.Rob_entry.executed && e.Rob_entry.mispredicted then begin
         if t.S.squash_bug then begin
           (* Buggy notification: the oldest detected misprediction wins
              the single notification slot even if its squash must be
              deferred. *)
           candidate := e;
           raise Exit
         end
         else if t.S.policy.Policy.may_resolve ap e then begin
           candidate := e;
           raise Exit
         end
         else begin
           t.S.progress <- true;
           t.S.stats.Stats.resolution_delay_cycles <-
             t.S.stats.Stats.resolution_delay_cycles + 1;
           if S.wants t Hooks.k_resolve_blocked then
             S.emit t (Hooks.On_resolve_blocked e)
         end
       end;
       cursor := next
     done
   with Exit -> ());
  let c = !candidate in
  if (not (Rob_entry.is_null c)) && t.S.policy.Policy.may_resolve ap c then begin
    c.Rob_entry.resolved <- true;
    S.bq_unlink t c;
    t.S.progress <- true;
    if S.wants t Hooks.k_window_close then
      S.emit t (Hooks.On_window_close { entry = c; cause = Hooks.W_mispredicted });
    t.S.stats.Stats.branch_mispredicts <-
      t.S.stats.Stats.branch_mispredicts + 1;
    Squash.flush t ~from_seq:(c.Rob_entry.seq + 1)
      ~new_pc:c.Rob_entry.actual_target
  end
