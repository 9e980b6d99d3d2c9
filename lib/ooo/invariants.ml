(* Microarchitectural invariant checker for the out-of-order core.

   The pipeline's internal consistency rests on a handful of structural
   invariants (ROB ring layout, rename-map producer validity, ProtISA
   protection-bit conservation, fetch-buffer sanity).  Violating any of
   them silently corrupts a simulation — and a corrupted simulation can
   report a defense as secure when it is not.

   [check] audits a pipeline snapshot and returns the violations it
   finds; [check_sched] cross-checks the O(active) scheduler's redundant
   indexes (ready-bit vector, parked sets, branch list, in-flight deque,
   store/load queues and their capacities, wakeup chains, dormancy)
   against a brute-force ROB scan.
   [attach] subscribes both to the pipeline's hook bus on
   [On_cycle_end] with off/warn/fail modes, sampled every [every]
   cycles, which is how [Experiment.execute] wires it per core (a
   [Pipeline.run] caller passes it as [on_start]); [attach_sched]
   subscribes [check_sched] alone, for --paranoid-sched. *)

open Protean_isa
module S = Pipeline_state

type mode = Off | Warn | Fail

let mode_of_string = function
  | "off" -> Off
  | "warn" -> Warn
  | "fail" -> Fail
  | s -> invalid_arg ("Invariants.mode_of_string: " ^ s)

type violation = { inv : string; detail : string }

(* Cross-check the scheduler indexes against the ring.  Counting
   argument per index: every member must be a live entry in the right
   state (soundness), and the member count must equal the ring count of
   entries in that state (completeness) — together they prove the index
   is exactly the set it claims to be, without per-cycle hash tables. *)
let check_sched (t : S.t) : violation list =
  let vs = ref [] in
  let fail inv fmt =
    Printf.ksprintf (fun detail -> vs := { inv; detail } :: !vs) fmt
  in
  let live (e : Rob_entry.t) =
    (not (Rob_entry.is_null e)) && S.peek t e.Rob_entry.seq == e
  in
  (* The slot vectors, soundness: the four are disjoint and set only
     inside the live window (the padding bits past the ring size
     included); a [ready] bit names an unissued entry; a [held] bit an
     unissued, execution-gated entry with every source ready, whose
     stored threshold is what the gate says now — at most its own seq
     unless [never] — and lies above the frontier; a [fwd_wait] bit an
     unissued entry whose stored stalls are its non-ready sources with
     an executed producer, and whose stored threshold is the least of
     what the forwarding gate says for them now — each at most its
     producer's seq — and lies above the frontier; an [mdp_wait] bit an
     unissued load the MDP flagged, with an older store of unknown
     address, that the gate lets through.  Each parked set's count,
     stalls and least threshold match its bits, and [ready_sum] has a
     bit exactly for each non-zero [ready] word.  Completeness — every
     unissued entry in none of them really is dormant — is the dormancy
     check below. *)
  let n = S.rob_size t in
  let ap = t.S.api in
  let frontier = S.frontier t in
  let gate (e : Rob_entry.t) = t.S.policy.Policy.transmit_frontier ap e in
  let all_ready (e : Rob_entry.t) =
    Array.for_all (fun r -> r) e.Rob_entry.src_ready
  in
  (* Each parked set's bits, stalls and least threshold, as found. *)
  let found () = (ref 0, ref 0, ref Policy.never) in
  let held_found = found () and fwd_found = found () in
  let tally (bits, stalls, least) (p : S.parked) slot =
    incr bits;
    stalls := !stalls + p.S.stalls.(slot);
    if p.S.thr.(slot) < !least then least := p.S.thr.(slot)
  in
  let check_parked inv (p : S.parked) (bits, stalls, least) =
    if !bits <> p.S.count || !stalls <> p.S.total || !least <> p.S.least then
      fail inv
        "%d bits, %d stalls, least threshold %d; counted %d, %d, least %d"
        !bits !stalls !least p.S.count p.S.total p.S.least
  in
  let mdp_bits = ref 0 in
  for slot = 0 to (Array.length t.S.ready * 32) - 1 do
    let r = S.ready_mem t slot
    and h = S.held_mem t slot
    and f = S.fwd_mem t slot
    and m = S.mdp_mem t slot in
    let vectors =
      Bool.to_int r + Bool.to_int h + Bool.to_int f + Bool.to_int m
    in
    if h then tally held_found t.S.held slot;
    if f then tally fwd_found t.S.fwd_wait slot;
    if m then incr mdp_bits;
    if vectors > 1 then
      fail "sched-parked"
        "slot %d is in more than one of ready/held/fwd_wait/mdp_wait" slot;
    let off = slot - t.S.head_idx in
    let off = if off < 0 then off + n else off in
    if vectors > 0 && (slot >= n || off >= t.S.count) then
      fail
        (if r then "sched-ready" else "sched-parked")
        "bit set for slot %d outside the live window" slot
    else if vectors > 0 then begin
      let e = t.S.rob.(slot) in
      let seq = e.Rob_entry.seq in
      if e.Rob_entry.issued then
        fail
          (if r then "sched-ready" else "sched-parked")
          "issued entry seq %d has its bit set" seq;
      if h then begin
        let thr = t.S.held.S.thr.(slot) in
        if t.S.held.S.stalls.(slot) <> 1 then
          fail "sched-held" "seq %d counts %d stalls, not one" seq
            t.S.held.S.stalls.(slot);
        if not (Rob_entry.execution_gated e) then
          fail "sched-held" "seq %d is held but not execution-gated" seq
        else if not (all_ready e) then
          fail "sched-held" "seq %d is held with a source not ready" seq
        else begin
          let fresh = gate e in
          if fresh <> thr then
            fail "sched-held" "seq %d holds threshold %d, its gate says %d" seq
              thr fresh;
          if thr <= frontier then
            fail "sched-held" "seq %d waits for frontier %d, which is at %d"
              seq thr frontier;
          if thr > seq && thr <> Policy.never then
            fail "sched-held" "seq %d waits for frontier %d, past its own seq"
              seq thr
        end
      end;
      if f then begin
        let thr = t.S.fwd_wait.S.thr.(slot) in
        let refused = ref 0 and least = ref Policy.never in
        Array.iteri
          (fun i ready ->
            if not ready then begin
              let p = S.peek t e.Rob_entry.src_producer.(i) in
              if Rob_entry.is_null p then
                fail "sched-fwd" "seq %d waits with a source from a committed \
                                  producer" seq
              else if p.Rob_entry.executed then begin
                incr refused;
                let fresh = t.S.policy.Policy.forward_frontier ap p in
                if fresh < !least then least := fresh;
                if fresh > p.Rob_entry.seq then
                  fail "sched-fwd"
                    "seq %d waits for frontier %d, past its producer seq %d"
                    seq fresh p.Rob_entry.seq
              end
            end)
          e.Rob_entry.src_ready;
        if !refused <> t.S.fwd_wait.S.stalls.(slot) then
          fail "sched-fwd" "seq %d counts %d refused sources, has %d" seq
            t.S.fwd_wait.S.stalls.(slot) !refused;
        if !least <> thr then
          fail "sched-fwd" "seq %d holds threshold %d, its gates say %d" seq
            thr !least;
        if thr <= frontier then
          fail "sched-fwd" "seq %d waits for frontier %d, which is at %d" seq
            thr frontier
      end;
      if m then
        if not (Rob_entry.is_load e && all_ready e) then
          fail "sched-mdp" "seq %d waits on the MDP but is not a ready load" seq
        else if
          not
            (Stage_memory.mdp_flagged t e.Rob_entry.pc
            && Stage_memory.older_store_addr_unknown t e)
        then fail "sched-mdp" "seq %d waits on the MDP for no store" seq
        else if gate e > frontier then
          fail "sched-mdp" "seq %d waits on the MDP past a closed gate" seq
    end
  done;
  check_parked "sched-held" t.S.held held_found;
  check_parked "sched-fwd" t.S.fwd_wait fwd_found;
  if !mdp_bits <> t.S.mdp_count then
    fail "sched-mdp" "%d bits, counted %d" !mdp_bits t.S.mdp_count;
  for w = 0 to (Array.length t.S.ready_sum * 32) - 1 do
    let nonzero = w < Array.length t.S.ready && t.S.ready.(w) <> 0 in
    if S.bit_mem t.S.ready_sum w <> nonzero then
      fail "sched-ready" "summary bit %d disagrees with its ready word" w
  done;
  (* Unresolved-branch list: exactly the live unresolved branches. *)
  let bq_count = ref 0 in
  let prev_seq = ref min_int in
  let cursor = ref t.S.bq_head in
  while not (Rob_entry.is_null !cursor) do
    let e = !cursor in
    incr bq_count;
    if not (live e) then fail "sched-bq" "dead entry seq %d linked" e.Rob_entry.seq;
    if (not e.Rob_entry.is_branch) || e.Rob_entry.resolved then
      fail "sched-bq" "seq %d is not a live unresolved branch" e.Rob_entry.seq;
    if e.Rob_entry.seq <= !prev_seq then
      fail "sched-bq" "not seq-ascending at seq %d" e.Rob_entry.seq;
    prev_seq := e.Rob_entry.seq;
    cursor := e.Rob_entry.bq_next
  done;
  let ring_unresolved = ref 0 in
  S.iter_rob t (fun e ->
      if e.Rob_entry.is_branch && not e.Rob_entry.resolved then
        incr ring_unresolved);
  if !bq_count <> !ring_unresolved then
    fail "sched-bq" "list has %d entries, ring has %d unresolved branches"
      !bq_count !ring_unresolved;
  (* In-flight deque: exactly the live issued-but-not-executed entries. *)
  let inflight_count = ref 0 in
  Entryq.iter
    (fun e ->
      incr inflight_count;
      if not (live e) then
        fail "sched-inflight" "dead entry seq %d queued" e.Rob_entry.seq;
      if (not e.Rob_entry.issued) || e.Rob_entry.executed then
        fail "sched-inflight" "seq %d is not issued-and-unexecuted"
          e.Rob_entry.seq)
    t.S.inflight;
  let ring_inflight = ref 0 in
  S.iter_rob t (fun e ->
      if e.Rob_entry.issued && not e.Rob_entry.executed then incr ring_inflight);
  if !inflight_count <> !ring_inflight then
    fail "sched-inflight" "deque has %d entries, ring has %d in flight"
      !inflight_count !ring_inflight;
  (* Store/load queues: exactly the live stores/loads, seq-ascending
     (ascent is implied by membership + count + push order, but check it
     directly — it is what [lower_bound] relies on), and within the
     queue's capacity, which rename's stall reads off the deque. *)
  let check_lsq name q is_kind size =
    let n = Entryq.length q in
    let prev_seq = ref min_int in
    Entryq.iter
      (fun e ->
        if not (live e) then fail name "dead entry seq %d queued" e.Rob_entry.seq;
        if not (is_kind e) then fail name "seq %d has the wrong kind" e.Rob_entry.seq;
        if e.Rob_entry.seq <= !prev_seq then
          fail name "not seq-ascending at seq %d" e.Rob_entry.seq;
        prev_seq := e.Rob_entry.seq)
      q;
    let ring = ref 0 in
    S.iter_rob t (fun e -> if is_kind e then incr ring);
    if n <> !ring then fail name "queue has %d entries, ring has %d" n !ring;
    if n > size then fail name "queue has %d entries, capacity %d" n size
  in
  check_lsq "sched-sq" t.S.lsq_stores Rob_entry.is_store t.S.cfg.Config.sq_size;
  check_lsq "sched-lq" t.S.lsq_loads Rob_entry.is_load t.S.cfg.Config.lq_size;
  (* Wakeup chains.  Soundness: every chain node (consumer, slot) must
     name a live consumer whose slot is non-ready and produced by the
     chain's owner.  Completeness: the total node count must equal the
     ring count of (entry, slot) pairs that are non-ready with a live,
     un-executed producer — so no waiting slot is missing from a chain.
     Dormancy: an unissued entry in none of the slot vectors is dormant, and
     must have at least one non-ready source and *no* non-ready source
     whose producer is committed or executed (such an entry must stay
     visible to the issue scan, or wait in [fwd_wait] when the forwarding
     gate refused it: it may be ready to issue). *)
  let chain_nodes = ref 0 in
  S.iter_rob t (fun p ->
      let c = ref p.Rob_entry.waiters in
      let s = ref p.Rob_entry.waiters_slot in
      if (not (Rob_entry.is_null !c)) && p.Rob_entry.executed then
        fail "sched-wake" "executed producer seq %d has a non-empty chain"
          p.Rob_entry.seq;
      while not (Rob_entry.is_null !c) do
        let cur = !c and slot = !s in
        incr chain_nodes;
        if slot < 0 || slot >= Array.length cur.Rob_entry.src_ready then begin
          fail "sched-wake" "bad slot %d for consumer seq %d in chain of seq %d"
            slot cur.Rob_entry.seq p.Rob_entry.seq;
          c := Rob_entry.null (* cannot follow a corrupt link *)
        end
        else begin
          if not (live cur) then
            fail "sched-wake" "dead consumer seq %d in chain of seq %d"
              cur.Rob_entry.seq p.Rob_entry.seq
          else begin
            if cur.Rob_entry.src_ready.(slot) then
              fail "sched-wake" "ready slot %d of seq %d still chained" slot
                cur.Rob_entry.seq;
            if cur.Rob_entry.src_producer.(slot) <> p.Rob_entry.seq then
              fail "sched-wake" "slot %d of seq %d chained to wrong producer %d"
                slot cur.Rob_entry.seq p.Rob_entry.seq
          end;
          c := cur.Rob_entry.wl_next.(slot);
          s := cur.Rob_entry.wl_slot.(slot)
        end
      done);
  let waiting_slots = ref 0 in
  S.iter_rob t (fun e ->
      let n = Array.length e.Rob_entry.src_ready in
      let slot = S.idx_of_seq t e.Rob_entry.seq in
      let pending = ref false in
      let blocked_or_done = ref false in
      for i = 0 to n - 1 do
        if not e.Rob_entry.src_ready.(i) then begin
          let p = S.peek t e.Rob_entry.src_producer.(i) in
          if Rob_entry.is_null p || p.Rob_entry.executed then
            blocked_or_done := true
          else begin
            pending := true;
            incr waiting_slots
          end
        end
      done;
      if
        (not e.Rob_entry.issued)
        && not
             (S.ready_mem t slot || S.held_mem t slot || S.fwd_mem t slot
            || S.mdp_mem t slot)
      then begin
        if not !pending then
          fail "sched-dormant" "dormant seq %d has no pending producer"
            e.Rob_entry.seq;
        if !blocked_or_done then
          fail "sched-dormant"
            "dormant seq %d has a source with an executed/committed producer"
            e.Rob_entry.seq
      end);
  if !chain_nodes <> !waiting_slots then
    fail "sched-wake" "chains hold %d nodes, ring has %d waiting slots"
      !chain_nodes !waiting_slots;
  (* Structural port model (only when [Config.ports] is configured).
     The checker runs after the cycle counter advanced, so "last cycle"
     is [t.cycle - 1]; a blocking holder's busy-until satisfies
     busy_until = t.cycle + cycles_left - 1 whether or not its first
     tick has happened (both cases reduce to the same formula). *)
  (match t.S.cfg.Config.ports with
  | None -> ()
  | Some pc ->
      let n_ports = Array.length pc.Config.port_caps in
      (* Binding sanity: every bound entry names a real, compatible
         port; every issued entry is bound. *)
      S.iter_rob t (fun e ->
          let port = e.Rob_entry.port in
          if e.Rob_entry.issued && port < 0 then
            fail "sched-port" "issued entry seq %d has no port" e.Rob_entry.seq;
          if port >= 0 then begin
            if port >= n_ports then
              fail "sched-port" "seq %d bound to port %d of %d" e.Rob_entry.seq
                port n_ports
            else begin
              if not e.Rob_entry.issued then
                fail "sched-port" "unissued entry seq %d bound to port %d"
                  e.Rob_entry.seq port;
              let cls = Rob_entry.op_class e in
              if not (Config.port_can pc port cls) then
                fail "sched-port" "seq %d (%s) bound to incapable port %d"
                  e.Rob_entry.seq
                  (Config.op_class_name cls)
                  port
            end
          end);
      (* Port oversubscription, two forms.  Same-cycle: the entries that
         issued last cycle must occupy pairwise-distinct ports.
         Cross-cycle: at most one live, still-computing entry of an
         unpipelined class may hold each port, and the schedule's
         busy-until must agree with its remaining latency. *)
      let issued_on = Array.make n_ports (-1) in
      let holder_on = Array.make n_ports (-1) in
      S.iter_rob t (fun e ->
          let port = e.Rob_entry.port in
          if port >= 0 && port < n_ports then begin
            if e.Rob_entry.t_issue = t.S.cycle - 1 then begin
              if issued_on.(port) >= 0 then
                fail "sched-port" "seq %d and seq %d both issued to port %d"
                  issued_on.(port) e.Rob_entry.seq port;
              issued_on.(port) <- e.Rob_entry.seq
            end;
            if
              (not e.Rob_entry.executed)
              && e.Rob_entry.cycles_left > 0
              && not
                   pc.Config.cls_pipelined.(Config.op_class_index
                                              (Rob_entry.op_class e))
            then begin
              if holder_on.(port) >= 0 then
                fail "sched-port" "seq %d and seq %d both hold blocking port %d"
                  holder_on.(port) e.Rob_entry.seq port;
              holder_on.(port) <- e.Rob_entry.seq;
              let expect = t.S.cycle + e.Rob_entry.cycles_left - 1 in
              if t.S.port_busy_until.(port) <> expect then
                fail "sched-port"
                  "port %d busy-until %d disagrees with holder seq %d \
                   (expected %d)"
                  port
                  t.S.port_busy_until.(port)
                  e.Rob_entry.seq expect
            end
          end);
      (* Writeback budget: completions stamped last cycle cannot exceed
         the CDB width.  Every such entry is still live at check time
         (commit precedes the execute tick within a cycle), so a ring
         scan sees them all; a mid-cycle squash can only undercount,
         which keeps the bound sound. *)
      if pc.Config.wb_width > 0 then begin
        let completed_last = ref 0 in
        S.iter_rob t (fun e ->
            if e.Rob_entry.executed && e.Rob_entry.t_complete = t.S.cycle - 1
            then incr completed_last);
        if !completed_last > pc.Config.wb_width then
          fail "sched-wb" "%d completions last cycle exceed CDB width %d"
            !completed_last pc.Config.wb_width
      end);
  List.rev !vs

let check (t : S.t) : violation list =
  let vs = ref [] in
  let fail inv fmt =
    Printf.ksprintf (fun detail -> vs := { inv; detail } :: !vs) fmt
  in
  let rob = t.S.rob in
  let n = Array.length rob in
  let count = t.S.count in
  let head_seq = t.S.head_seq in
  let head_idx = t.S.head_idx in
  (* --- ROB ring/count consistency ---------------------------------- *)
  if count < 0 || count > n then
    fail "rob-count" "count %d outside [0, %d]" count n
  else begin
    (* Every occupied slot holds the sequence number its position
       implies; every slot outside the live window is empty. *)
    for i = 0 to count - 1 do
      let idx = (head_idx + i) mod n in
      let e = rob.(idx) in
      if Rob_entry.is_null e then
        fail "rob-ring" "hole at slot %d (expected seq %d)" i (head_seq + i)
      else if e.Rob_entry.seq <> head_seq + i then
        fail "rob-ring" "slot %d holds seq %d, expected %d" i e.Rob_entry.seq
          (head_seq + i)
    done;
    for i = count to n - 1 do
      let idx = (head_idx + i) mod n in
      let e = rob.(idx) in
      if not (Rob_entry.is_null e) then
        fail "rob-ring" "stale entry seq %d outside the live window"
          e.Rob_entry.seq
    done
  end;
  (* --- Rename-map producer validity -------------------------------- *)
  (* The mapping must name the *youngest* in-flight writer: one walk,
     oldest to youngest, leaves each register's in [youngest]. *)
  let youngest = Array.make (Array.length t.S.rmap_producer) (-1) in
  S.iter_rob t (fun e ->
      Array.iter
        (fun d -> youngest.(Reg.to_int d) <- e.Rob_entry.seq)
        e.Rob_entry.dsts);
  Array.iteri
    (fun ri p ->
      if p >= 0 then begin
        let r = Reg.of_int ri in
        let e = S.peek t p in
        if Rob_entry.is_null e then
          fail "rmap-producer" "%s maps to seq %d, not in the ROB" (Reg.name r) p
        else if not (Array.exists (fun d -> Reg.equal d r) e.Rob_entry.dsts)
        then
          fail "rmap-producer" "%s maps to seq %d which does not write it"
            (Reg.name r) p
        else if youngest.(ri) > p then
          fail "rmap-producer" "%s maps to seq %d but seq %d is a younger writer"
            (Reg.name r) p youngest.(ri)
      end)
    t.S.rmap_producer;
  (* --- Protection-bit conservation ---------------------------------- *)
  (* A register with no in-flight writer (released at commit or rebuilt
     by a squash) must carry the committed ProtISA protection bit —
     squash replay or commit release dropping a protection bit is a
     security bug, not just a correctness one. *)
  Array.iteri
    (fun ri p ->
      if p < 0 && t.S.rmap_prot.(ri) <> t.S.reg_prot.(ri) then
        fail "prot-conservation"
          "%s has no in-flight writer but rmap_prot=%b <> reg_prot=%b"
          (Reg.name (Reg.of_int ri))
          t.S.rmap_prot.(ri) t.S.reg_prot.(ri))
    t.S.rmap_producer;
  (* --- Fetch-buffer sanity ------------------------------------------ *)
  let buf_len = S.fb_length t in
  if buf_len > S.fetch_buf_capacity then
    fail "fetch-buf" "length %d exceeds capacity %d" buf_len
      S.fetch_buf_capacity;
  S.fb_iter
    (fun (item : S.fetch_item) ->
      if item.S.f_fetched > t.S.cycle then
        fail "fetch-buf" "item at pc %d fetched in the future (cycle %d)"
          item.S.f_pc item.S.f_fetched;
      if
        item.S.f_ready - item.S.f_fetched <> t.S.cfg.Config.frontend_latency
      then
        fail "fetch-buf" "item at pc %d has ready-fetched delta %d, expected %d"
          item.S.f_pc
          (item.S.f_ready - item.S.f_fetched)
          t.S.cfg.Config.frontend_latency)
    t;
  List.rev !vs @ check_sched t

let violations_to_string vs =
  String.concat "; " (List.map (fun v -> v.inv ^ ": " ^ v.detail) vs)

(* Subscribe the checks to the pipeline's hook bus at [On_cycle_end],
   sampled every [every] cycles.  [Warn] reports each distinct invariant
   once per subscription on stderr; [Fail] raises
   [Pipeline_state.Sim_fault] with the full violation list in the
   dump. *)
let attach ?(every = 1) (mode : mode) (t : S.t) =
  let every = max 1 every in
  let warned = Hashtbl.create 8 in
  let on_cycle_end t =
    match mode with
    | Off -> ()
    | Warn | Fail -> (
        if t.S.cycle mod every = 0 then
          match check t with
          | [] -> ()
          | vs -> (
              match mode with
              | Off -> ()
              | Warn ->
                  List.iter
                    (fun v ->
                      if not (Hashtbl.mem warned v.inv) then begin
                        Hashtbl.replace warned v.inv ();
                        Printf.eprintf "[invariant:%s] cycle %d: %s\n%!" v.inv
                          t.S.cycle v.detail
                      end)
                    vs
              | Fail ->
                  raise
                    (S.Sim_fault
                       (S.fault t
                          (S.Invariant_violation (violations_to_string vs))))))
  in
  Hooks.subscribe t.S.hooks ~name:"invariants" ~kinds:[ Hooks.k_cycle_end ]
    (fun st ev -> match ev with Hooks.On_cycle_end -> on_cycle_end st | _ -> ())

(* The paranoid scheduler cross-check: [check_sched] at every
   [On_cycle_end], a simulation fault on the first mismatch.  It also
   turns skip-ahead off, so the paranoid machine is the spinning
   reference that the golden corpora compare skip-ahead against.
   Attach before the first cycle. *)
let attach_sched (t : S.t) =
  t.S.skip_enabled <- false;
  Hooks.subscribe t.S.hooks ~name:"paranoid-sched" ~kinds:[ Hooks.k_cycle_end ]
    (fun st ev ->
      match ev with
      | Hooks.On_cycle_end -> (
          match check_sched st with
          | [] -> ()
          | vs ->
              raise
                (S.Sim_fault
                   (S.fault st
                      (S.Invariant_violation (violations_to_string vs)))))
      | _ -> ())
