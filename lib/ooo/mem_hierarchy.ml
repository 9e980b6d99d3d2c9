(* The L1D/L2/L3 + TLB access path.

   Walking the hierarchy mutates cache and TLB state (fills, evictions,
   replacement metadata) — wrong-path accesses included, since transient
   fills are exactly the side channel the defenses must close.  The walk
   is reported as a single [On_mem_access] event whose [path] lists the
   fills and evictions in the order they happened; the trace observer
   replays them, the stats observer counts the L1D access/miss.

   Building the path costs allocations per access, so it is gated on the
   pseudo-kind [Hooks.k_mem_path] (claimed by the trace observer): when
   no subscriber wants path detail, the walk records nothing and the
   event carries [path = []].  Cache/TLB mutations are identical either
   way. *)

module S = Pipeline_state

(* [path] (newest first) plus the fill and eviction of a miss at [level]. *)
let fill level cache hit path =
  if hit then path
  else
    let m = Cache.last_miss cache in
    let path =
      Hooks.M_fill { level; set = m.Cache.set; tag = m.Cache.tag } :: path
    in
    match m.Cache.evicted with
    | Some line -> Hooks.M_evict { level; line } :: path
    | None -> path

(* Walk the hierarchy for a data access at [addr]; returns the latency. *)
let access (t : S.t) addr =
  let with_path = S.wants t Hooks.k_mem_path in
  let path = ref [] in
  let tlb_hit = Tlb.access t.S.tlb addr in
  if with_path && not tlb_hit then
    path := Hooks.M_tlb_fill (Tlb.page_of addr) :: !path;
  let tlb_penalty = if tlb_hit then 0 else t.S.cfg.Config.tlb_miss_latency in
  let l1_hit = Cache.access t.S.l1d addr in
  if with_path then path := fill 1 t.S.l1d l1_hit !path;
  let latency =
    if l1_hit then tlb_penalty + t.S.cfg.Config.l1d.Config.latency
    else begin
      let l2_hit = Cache.access t.S.l2 addr in
      if with_path then path := fill 2 t.S.l2 l2_hit !path;
      if l2_hit then tlb_penalty + t.S.cfg.Config.l2.Config.latency
      else
        match t.S.l3 with
        | Some l3 ->
            let l3_hit = Cache.access l3 addr in
            if with_path then path := fill 3 l3 l3_hit !path;
            if l3_hit then
              tlb_penalty
              + (match t.S.cfg.Config.l3 with Some c -> c.Config.latency | None -> 0)
            else tlb_penalty + t.S.cfg.Config.mem_latency
        | None -> tlb_penalty + t.S.cfg.Config.mem_latency
    end
  in
  if S.wants t Hooks.k_mem_access then
    S.emit t (Hooks.On_mem_access { addr; l1_hit; latency; path = List.rev !path });
  latency
