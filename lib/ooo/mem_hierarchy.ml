(* The L1D/L2/L3 + TLB access path.

   Walking the hierarchy mutates cache and TLB state (fills, evictions,
   replacement metadata) — wrong-path accesses included, since transient
   fills are exactly the side channel the defenses must close.  The walk
   counts the L1D access and miss in [Stats] and, when the hardware
   trace is on, records the TLB fill and then each level's fill and
   eviction, in walk order.  An untraced walk builds no trace event. *)

module S = Pipeline_state

(* Trace the fill and eviction of a miss at [level]. *)
let record_fill (t : S.t) level cache hit =
  if not hit then begin
    let m = Cache.last_miss cache in
    Hw_trace.record t.S.trace
      (Hw_trace.E_cache_fill { level; set = m.Cache.set; tag = m.Cache.tag });
    match m.Cache.evicted with
    | Some line ->
        Hw_trace.record t.S.trace (Hw_trace.E_cache_evict { level; line })
    | None -> ()
  end

(* Walk the hierarchy for a data access at [addr]; returns the latency. *)
let access (t : S.t) addr =
  let traced = Hw_trace.enabled t.S.trace in
  let st = t.S.stats in
  let tlb_hit = Tlb.access t.S.tlb addr in
  if traced && not tlb_hit then
    Hw_trace.record t.S.trace (Hw_trace.E_tlb_fill (Tlb.page_of addr));
  let tlb_penalty = if tlb_hit then 0 else t.S.cfg.Config.tlb_miss_latency in
  let l1_hit = Cache.access t.S.l1d addr in
  if traced then record_fill t 1 t.S.l1d l1_hit;
  st.Stats.l1d_accesses <- st.Stats.l1d_accesses + 1;
  if l1_hit then tlb_penalty + t.S.cfg.Config.l1d.Config.latency
  else begin
    st.Stats.l1d_misses <- st.Stats.l1d_misses + 1;
    let l2_hit = Cache.access t.S.l2 addr in
    if traced then record_fill t 2 t.S.l2 l2_hit;
    if l2_hit then tlb_penalty + t.S.cfg.Config.l2.Config.latency
    else
      match t.S.l3 with
      | Some l3 ->
          let l3_hit = Cache.access l3 addr in
          if traced then record_fill t 3 l3 l3_hit;
          if l3_hit then
            tlb_penalty
            + (match t.S.cfg.Config.l3 with
              | Some c -> c.Config.latency
              | None -> 0)
          else tlb_penalty + t.S.cfg.Config.mem_latency
      | None -> tlb_penalty + t.S.cfg.Config.mem_latency
  end
