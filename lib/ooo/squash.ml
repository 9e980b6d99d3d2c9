(* The squash engine: flush wrong-path state and restart fetch.

   Used by branch resolution (mispredictions), the memory stage
   (order-violation recovery) and commit (machine clears).  The flush
   itself — ROB and LSQ truncation, rename-map rebuild with ProtISA
   protection replay, RSB clear — is structural state owned
   here; once the pipeline is consistent again it counts the squash in
   [Stats] and records it in the hardware trace.

   The flush also rebuilds every scheduler index exactly:
   - slot bit vectors: every flushed slot leaves [ready], [held],
     [fwd_wait] and [mdp_wait], and a parked set whose least threshold
     left recomputes it,
   - branch list: truncated from the tail (seq-ascending),
   - in-flight deque and live store/load queues: filtered/truncated,
   - wakeup chains: flushed consumers are removed from surviving
     producers' chains.  A flushed *producer*'s chain needs no care —
     its waiters are younger than it, hence also flushed.
   Truncation must be eager (not lazy tombstoning) because squashed
   sequence numbers are reused: a stale entry left in an index could
   later alias a re-renamed entry with the same seq. *)

module S = Pipeline_state

(* Remove every entry with seq >= [from_seq] and refetch at [new_pc].
   Flushed entries are parked in [squash_scratch] and released to the
   per-pc entry pool only once every index is consistent — the branch
   list truncation and the wakeup-chain cleanup below still read (and
   write) their link fields. *)
let flush (t : S.t) ~from_seq ~new_pc =
  let flushed = ref 0 in
  let keep = from_seq - t.S.head_seq in
  let keep = if keep < 0 then 0 else keep in
  for i = keep to t.S.count - 1 do
    let idx =
      let j = t.S.head_idx + i in
      let n = S.rob_size t in
      if j >= n then j - n else j
    in
    let e = t.S.rob.(idx) in
    if not (Rob_entry.is_null e) then begin
      t.S.squash_scratch.(!flushed) <- e;
      incr flushed;
      (* Release an execution port held across cycles by a flushed,
         still-computing unpipelined entry.  The cycles_left > 0 guard
         matters: such a holder's [port_busy_until] lies in the future,
         so nothing else can have re-bound the port since it issued —
         the reset cannot free a port an older survivor occupies.  (A
         finished-but-writeback-deferred entry holds no port: its
         busy-until already lapsed.) *)
      (match t.S.cfg.Config.ports with
      | Some pc
        when e.Rob_entry.port >= 0
             && (not e.Rob_entry.executed)
             && e.Rob_entry.cycles_left > 0
             && not
                  pc.Config.cls_pipelined.(Config.op_class_index
                                             (Rob_entry.op_class e)) ->
          t.S.port_busy_until.(e.Rob_entry.port) <- 0
      | _ -> ());
      e.Rob_entry.waiters <- Rob_entry.null
    end;
    S.sched_drop t idx;
    t.S.rob.(idx) <- Rob_entry.null
  done;
  S.settle t t.S.held;
  S.settle t t.S.fwd_wait;
  (* Squashed sequence numbers are reused so the ROB ring stays
     contiguous: rename numbers from [head_seq + count].  Every surviving
     reference (source producers, taint roots, forwarding stores) points
     at strictly older entries, so no alias with a reused number can
     arise. *)
  t.S.count <- min t.S.count keep;
  (* Scheduler indexes: drop everything from [from_seq] on. *)
  while
    (not (Rob_entry.is_null t.S.bq_tail))
    && t.S.bq_tail.Rob_entry.seq >= from_seq
  do
    let b = t.S.bq_tail in
    S.bq_unlink t b;
    if S.wants t Hooks.k_window_close then
      S.emit t (Hooks.On_window_close { entry = b; cause = Hooks.W_flushed })
  done;
  Entryq.truncate_ge t.S.lsq_stores from_seq;
  Entryq.truncate_ge t.S.lsq_loads from_seq;
  Entryq.filter_lt t.S.inflight from_seq;
  (* Remove flushed consumers from surviving producers' wakeup chains
     (chain nodes are (entry, source-slot) pairs; surviving members keep
     their membership, rebuilt by prepending). *)
  S.iter_rob t (fun p ->
      if not (Rob_entry.is_null p.Rob_entry.waiters) then begin
        let kept = ref Rob_entry.null and kept_slot = ref 0 in
        let c = ref p.Rob_entry.waiters in
        let s = ref p.Rob_entry.waiters_slot in
        while not (Rob_entry.is_null !c) do
          let cur = !c and slot = !s in
          c := cur.Rob_entry.wl_next.(slot);
          s := cur.Rob_entry.wl_slot.(slot);
          if cur.Rob_entry.seq < from_seq then begin
            cur.Rob_entry.wl_next.(slot) <- !kept;
            cur.Rob_entry.wl_slot.(slot) <- !kept_slot;
            kept := cur;
            kept_slot := slot
          end
          else begin
            cur.Rob_entry.wl_next.(slot) <- Rob_entry.null;
            cur.Rob_entry.wl_slot.(slot) <- -1
          end
        done;
        p.Rob_entry.waiters <- !kept;
        p.Rob_entry.waiters_slot <- !kept_slot
      end);
  let scratched = !flushed in
  flushed := !flushed + S.fb_length t;
  S.fb_clear t;
  (* Rebuild the rename map from the committed state, then replay the
     survivors' destinations and output tags in order. *)
  for ri = 0 to Array.length t.S.rmap_producer - 1 do
    t.S.rmap_producer.(ri) <- -1;
    t.S.rmap_prot.(ri) <- t.S.reg_prot.(ri)
  done;
  for i = 0 to t.S.count - 1 do
    S.rmap_define t t.S.rob.(S.idx_of_seq t (t.S.head_seq + i))
  done;
  Branch_pred.rsb_clear t.S.bp;
  (* Every index is consistent: recycle the flushed entries.  Their
     remaining link-field garbage is reset on reuse. *)
  for i = 0 to scratched - 1 do
    S.pool_put t t.S.squash_scratch.(i);
    t.S.squash_scratch.(i) <- Rob_entry.null
  done;
  t.S.fetch_stalled <- false;
  t.S.fetch_pc <- new_pc;
  t.S.progress <- true;
  let st = t.S.stats in
  st.Stats.squashes <- st.Stats.squashes + 1;
  st.Stats.squashed_insns <- st.Stats.squashed_insns + !flushed;
  if Hw_trace.enabled t.S.trace then
    Hw_trace.record t.S.trace
      (Hw_trace.E_squash { cycle = t.S.cycle; flushed = !flushed })
