(* The shared pipeline state record and its primitive operations.

   Every stage module ([Stage_fetch] … [Stage_commit]), the memory
   hierarchy walker and the squash engine operate on this one typed
   record, and bump its [stats] and record its [trace] in place;
   optional tooling reacts to [Hooks] events carried by the [hooks] bus
   embedded in the record.  [Pipeline] composes the
   stages into a cycle and owns the public API.

   Besides the architectural/microarchitectural state, the record holds
   the O(active) issue scheduler's index structures (see
   docs/architecture.md, "Performance"): the ROB ring is a flat
   [Rob_entry.t array] with [Rob_entry.null] for empty slots, a bit
   vector over its slots marks what the issue scan visits, two more
   park the entries it need not visit until an event, unresolved
   branches form an intrusive doubly-linked list, and the
   in-flight/store/load sets are [Entryq] deques.  All of them are
   *redundant* indexes over the ring: [Invariants.check_sched]
   cross-checks them against a brute-force ROB scan (per cycle when
   [Invariants.attach_sched] subscribed it). *)

open Protean_isa
open Protean_arch

(* Fetch-buffer slots live in a pre-allocated ring ([fetch_ring]) and
   are overwritten in place — the frontend fetches several instructions
   per cycle, so a per-item allocation would dominate the minor heap.
   Mutable only for that recycling; stages treat a slot as read-only
   between push and pop.  The slot is deliberately all-int (the insn is
   re-derived from [f_pc] by rename) so slot writes never touch the GC
   write barrier. *)
type fetch_item = {
  mutable f_pc : int;
  mutable f_pred_target : int;
      (* -1 = no prediction (fetch stalled after this) *)
  mutable f_ready : int; (* cycle at which the item can rename *)
  mutable f_fetched : int;
}

(* The shared out-of-program instruction: what a runaway [fetch_pc]
   decodes to.  One static value so the fetch path never allocates. *)
let halt_insn = Insn.make Insn.Halt

type t = {
  cfg : Config.t;
  policy : Policy.t;
  spec_model : Policy.spec_model;
  squash_bug : bool;
      (* reintroduces the pending-squash corner case inherited from STT's
         gem5 implementation (Section VII-B4b) when true *)
  program : Program.t;
  mem : Memory.t; (* committed memory *)
  regs : int64 array; (* committed registers *)
  reg_prot : bool array; (* committed ProtISA register protections *)
  (* Rename map.  A register with no in-flight producer reads [regs]. *)
  rmap_producer : int array; (* per arch register: seq, or -1 *)
  rmap_prot : bool array;
  (* Reorder buffer: a ring indexed by sequence number; [Rob_entry.null]
     marks an empty slot.  The next entry renamed gets seq
     [head_seq + count]. *)
  rob : Rob_entry.t array;
  mutable head_idx : int;
  mutable head_seq : int;
  mutable count : int;
  (* O(active) scheduler indexes (redundant views over the ring). *)
  ready : int array; (* a bit per ROB slot, 32 per word; see [ready_set] *)
  (* Parked entries (see [hold] and [mdp_park]): unissued, every source
     ready, and out of [ready] until an event returns them. *)
  held : int array; (* transmitters the execution gate refused *)
  held_thr : int array;
      (* per slot: the frontier a held entry waits for, the value of
         [Policy.transmit_frontier] when it was refused *)
  mutable held_count : int;
  mutable held_min : int; (* least threshold held; [Policy.never] if none *)
  mdp_wait : int array; (* loads the MDP holds until a store resolves *)
  mutable mdp_count : int;
  mutable bq_head : Rob_entry.t; (* unresolved branches, seq-ascending DLL *)
  mutable bq_tail : Rob_entry.t;
  inflight : Entryq.t; (* issued && not executed, issue order *)
  lsq_stores : Entryq.t; (* live stores, seq-ascending; at most [sq_size] *)
  lsq_loads : Entryq.t; (* live loads, seq-ascending; at most [lq_size] *)
  (* Structural execution ports ([Config.ports]; both arrays are empty
     when the model is off).  [port_busy_until] is the first cycle an
     unpipelined computation's port accepts new work again;
     [port_used] is per-cycle scratch marking ports already bound this
     cycle, cleared at the top of each issue scan. *)
  port_busy_until : int array;
  port_used : bool array;
  (* Per-pc operand templates: [Insn.reads]/[Insn.writes] precomputed so
     rename shares one immutable srcs/dsts array per program location. *)
  tmpl_srcs : (Reg.t * Insn.role) array array;
  tmpl_dsts : Reg.t array array;
  (* Per-pc free list of dead ROB entries ([Rob_entry.null]-terminated,
     chained through [bq_next]): commit releases, rename recycles via
     [Rob_entry.reset].  Loop bodies re-rename the same pcs over and
     over, so in steady state rename allocates nothing.  Safe because a
     committed entry has no inbound physical pointers (wakeup chains are
     cleared at execution, scheduler lists at issue/resolve, ROB/LSQ
     slots at commit) — every cross-entry reference is by sequence
     number, and [peek] range-checks those.  Squashed entries are pooled
     too, but only at the *end* of the flush: the index cleanup still
     walks their branch-list and chain links, so [Squash.flush] parks
     them in [squash_scratch] (pre-allocated, ROB-sized) until the
     pipeline is consistent again. *)
  entry_pool : Rob_entry.t array;
  squash_scratch : Rob_entry.t array;
  (* Frontend. *)
  mutable fetch_pc : int;
  mutable fetch_stalled : bool;
  (* Fetch buffer: a fixed ring of [fetch_buf_capacity] recycled slots.
     [fetch_front] indexes the oldest item; [fetch_len] counts live
     items.  Use the [fb_*] operations below. *)
  fetch_ring : fetch_item array;
  mutable fetch_front : int;
  mutable fetch_len : int;
  bp : Branch_pred.t;
  mdp : Bytes.t;
      (* memory-dependence predictor (store-set style): a bit per load PC
         set after a memory-order violation; flagged loads wait until all
         older store addresses are known *)
  (* Memory hierarchy. *)
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t option;
  tlb : Tlb.t;
  shadow_prot : Protset.t option; (* Prot_mem_perfect variant *)
  (* Bookkeeping. *)
  trace : Hw_trace.t;
  stats : Stats.t;
  hooks : t Hooks.t;
  api : Policy.api; (* the policies' view of this pipeline *)
  mutable cycle : int;
  mutable done_ : bool;
  mutable last_commit_cycle : int;
  (* Event-driven skip-ahead (see [Pipeline.step]).  [progress] is reset
     at the top of every cycle and set by the stage modules at each
     meaningful-activity site (a fetch, a rename, an issue, a wakeup
     flip, a completion, a resolve, a squash, a commit, or any stall/deny
     site — every site that mutates machine state or bumps a
     counter).  A cycle that ends with [progress = false] is *quiet*:
     replaying it changes nothing observable, so the cycle counter may
     jump to the next event horizon instead of spinning. *)
  mutable progress : bool;
  mutable skip_enabled : bool;
      (* cleared by [Invariants.attach_sched]: the paranoid machine spins *)
}

let fetch_buf_capacity = 48

(* Decode templates: the per-pc operand arrays rename shares across all
   instances of one program location.  Building them walks the whole
   program ([Insn.reads]/[Insn.writes] allocate per insn), so harnesses
   that simulate one instrumented binary under many defense
   configurations precompute them once and pass [?decode] to [create] —
   the templates are immutable and safe to share between pipelines (and
   domains). *)
let decode_program (program : Program.t) =
  let plen = Program.length program in
  let tmpl_srcs = Array.make plen [||] in
  let tmpl_dsts = Array.make plen [||] in
  for pc = 0 to plen - 1 do
    let insn = Program.insn program pc in
    tmpl_srcs.(pc) <- Array.of_list (Insn.reads insn.Insn.op);
    tmpl_dsts.(pc) <- Array.of_list (Insn.writes insn.Insn.op)
  done;
  (tmpl_srcs, tmpl_dsts)

let emit t ev = Hooks.emit t.hooks t ev
let wants t kind = Hooks.wanted t.hooks kind

(* ------------------------------------------------------------------ *)
(* ROB ring operations                                                 *)
(* ------------------------------------------------------------------ *)

let rob_size t = Array.length t.rob
let rob_full t = t.count >= rob_size t

(* Ring indexing without division: [head_idx < size] and the offset is
   in [0, size), so one conditional subtract replaces the [mod] — this
   is the hottest address computation in the simulator ([peek] runs per
   source per active entry per cycle). *)
let idx_of_seq t seq =
  let i = t.head_idx + (seq - t.head_seq) in
  let n = Array.length t.rob in
  if i >= n then i - n else i

(* Allocation-free lookup: [Rob_entry.null] when [seq] is not live. *)
let peek t seq =
  if seq < t.head_seq || seq >= t.head_seq + t.count then Rob_entry.null
  else t.rob.(idx_of_seq t seq)

(* Iterate over ROB entries from oldest to youngest. *)
let iter_rob t f =
  let n = rob_size t in
  let idx = ref t.head_idx in
  for _ = 0 to t.count - 1 do
    f t.rob.(!idx);
    incr idx;
    if !idx >= n then idx := 0
  done

(* Rename-map update for [e]: it becomes the producer of each of its
   destinations, which take its ProtISA output tag [out_prot].  Rename
   applies it to a new entry and [Squash.flush] replays it over the
   survivors, so both write the same tags. *)
let rmap_define t (e : Rob_entry.t) =
  let dsts = e.Rob_entry.dsts in
  for i = 0 to Array.length dsts - 1 do
    let ri = Reg.to_int dsts.(i) in
    t.rmap_producer.(ri) <- e.Rob_entry.seq;
    t.rmap_prot.(ri) <- e.Rob_entry.out_prot
  done

(* Entry recycling (see [entry_pool]).  [pool_put] is called from commit
   once the entry is out of every index; the free list borrows
   [bq_next], null on every path into the pool (branches are unlinked
   when they resolve or are flushed), which [Rob_entry.reset] re-nulls. *)

let pool_put t (e : Rob_entry.t) =
  let pc = e.Rob_entry.pc in
  if pc >= 0 && pc < Array.length t.entry_pool then begin
    e.Rob_entry.bq_next <- t.entry_pool.(pc);
    t.entry_pool.(pc) <- e
  end

(* Pop a recyclable entry for [pc], or [Rob_entry.null].  The physical
   [insn] comparison guards against harnesses that patch program code
   between runs of one image (certificate fault injection): a patched pc
   simply falls back to a fresh allocation. *)
let pool_take t pc (insn : Insn.t) =
  if pc >= 0 && pc < Array.length t.entry_pool then begin
    let e = t.entry_pool.(pc) in
    if (not (Rob_entry.is_null e)) && e.Rob_entry.insn == insn then begin
      t.entry_pool.(pc) <- e.Rob_entry.bq_next;
      e
    end
    else Rob_entry.null
  end
  else Rob_entry.null

(* ------------------------------------------------------------------ *)
(* Fetch-buffer ring operations                                        *)
(* ------------------------------------------------------------------ *)

let fb_length t = t.fetch_len
let fb_is_empty t = t.fetch_len = 0
let fb_full t = t.fetch_len >= fetch_buf_capacity
let fb_peek t = t.fetch_ring.(t.fetch_front)

(* The returned item's slot stays valid until a later [fb_push] reuses
   it — pushes happen only in the fetch stage, after rename consumed the
   popped item, so the reference never outlives its contents. *)
let fb_pop t =
  let item = t.fetch_ring.(t.fetch_front) in
  let f = t.fetch_front + 1 in
  t.fetch_front <- (if f >= fetch_buf_capacity then 0 else f);
  t.fetch_len <- t.fetch_len - 1;
  item

let fb_push t ~pc ~pred_target ~ready ~fetched =
  let i =
    let j = t.fetch_front + t.fetch_len in
    if j >= fetch_buf_capacity then j - fetch_buf_capacity else j
  in
  let s = t.fetch_ring.(i) in
  s.f_pc <- pc;
  s.f_pred_target <- pred_target;
  s.f_ready <- ready;
  s.f_fetched <- fetched;
  t.fetch_len <- t.fetch_len + 1

let fb_clear t = t.fetch_len <- 0

(* Iterate oldest to youngest (diagnostics/invariants only). *)
let fb_iter f t =
  let idx = ref t.fetch_front in
  for _ = 0 to t.fetch_len - 1 do
    f t.fetch_ring.(!idx);
    incr idx;
    if !idx >= fetch_buf_capacity then idx := 0
  done

(* ------------------------------------------------------------------ *)
(* Scheduler index maintenance                                         *)
(* ------------------------------------------------------------------ *)

(* Slot bit vectors, 32 slots per word (a power of two, and the sign bit
   stays out of every mask).  Bit [i] of [ready] is set iff ROB slot [i]
   holds an unissued entry that is neither dormant nor parked: exactly
   the entries the issue scan must visit.  Rename sets the bit unless
   the entry parks on wakeup chains, [Stage_issue_exec] clears it when
   an entry goes dormant, parks or issues, a completing producer sets
   it for each waiter it wakes, a release moves parked bits back, and
   [Squash.flush] clears every flushed slot in all three vectors — so
   bits outside the live window (and padding bits past [rob_size]) are
   always 0, and a slot is in at most one vector. *)

let bit_set v slot =
  let w = slot lsr 5 in
  v.(w) <- v.(w) lor (1 lsl (slot land 31))

let bit_clear v slot =
  let w = slot lsr 5 in
  v.(w) <- v.(w) land lnot (1 lsl (slot land 31))

let bit_mem v slot = (v.(slot lsr 5) lsr (slot land 31)) land 1 = 1
let ready_set t slot = bit_set t.ready slot
let ready_clear t slot = bit_clear t.ready slot
let ready_mem t slot = bit_mem t.ready slot
let held_mem t slot = bit_mem t.held slot
let mdp_mem t slot = bit_mem t.mdp_wait slot

(* Lowest set bit of a non-zero 32-bit word by de Bruijn multiplication:
   the isolated bit times [0x077CB531] has a distinct top 5 bits for
   each of the 32 positions, and [debruijn] maps those back. *)
let debruijn =
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    Bytes.set b ((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) (Char.chr i)
  done;
  Bytes.to_string b

let lowest_bit x =
  Char.code debruijn.[(((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27]

(* First position in [s, e) whose slot's bit is set in [v], or -1.
   Positions count from slot 0 without wrapping ([n] <= p < 2n is slot
   p - n), so a live window is one range.  One read per word: a run of
   zero words costs a load and a compare each. *)
let rec bit_scan v n s e =
  if s >= e then -1
  else
    let p = if s >= n then s - n else s in
    let w = p lsr 5 in
    let word = v.(w) land ((-1) lsl (p land 31)) in
    if word <> 0 then
      let q = s + (w lsl 5) + lowest_bit word - p in
      if q < e then q else -1
    else
      let next = (w + 1) lsl 5 in
      bit_scan v n (s + (if next < n then next else n) - p) e

(* The next entry at an offset from the head (i.e. in seq order) in
   [off, lim) whose bit is set in [v], as an offset, or -1. *)
let bit_next t v off lim =
  if off >= lim then -1
  else
    let q =
      bit_scan v (Array.length t.rob) (t.head_idx + off) (t.head_idx + lim)
    in
    if q < 0 then -1 else q - t.head_idx

(* The next entry at or after offset [off] whose ready bit is set.
   Nothing at or past offset [count] is looked at. *)
let ready_next t off = bit_next t t.ready off t.count

(* Park the transmitter at [slot], refused by the execution gate until
   the frontier reaches [thr]. *)
let hold t slot thr =
  ready_clear t slot;
  bit_set t.held slot;
  t.held_thr.(slot) <- thr;
  t.held_count <- t.held_count + 1;
  if thr < t.held_min then t.held_min <- thr

(* Return every held transmitter whose threshold is at most [f] to
   [ready], and recompute [held_min] over the rest.  Walks set bits
   only. *)
let release_held t f =
  let v = t.held in
  let m = ref Policy.never in
  for w = 0 to Array.length v - 1 do
    let word = ref v.(w) in
    while !word <> 0 do
      let b = lowest_bit !word in
      word := !word land (!word - 1);
      let thr = t.held_thr.((w lsl 5) + b) in
      if thr <= f then begin
        v.(w) <- v.(w) land lnot (1 lsl b);
        t.ready.(w) <- t.ready.(w) lor (1 lsl b);
        t.held_count <- t.held_count - 1
      end
      else if thr < !m then m := thr
    done
  done;
  t.held_min <- !m

(* Park the load at [slot] until a store resolves its address. *)
let mdp_park t slot =
  ready_clear t slot;
  bit_set t.mdp_wait slot;
  t.mdp_count <- t.mdp_count + 1

(* A store resolved its address: every MDP-held load goes back to
   [ready], to be checked again. *)
let mdp_release t =
  let v = t.mdp_wait in
  for w = 0 to Array.length v - 1 do
    if v.(w) <> 0 then begin
      t.ready.(w) <- t.ready.(w) lor v.(w);
      v.(w) <- 0
    end
  done;
  t.mdp_count <- 0

(* Take a flushed [slot] out of all three vectors.  The caller
   recomputes [held_min] once the flush is done. *)
let sched_drop t slot =
  ready_clear t slot;
  if bit_mem t.held slot then begin
    bit_clear t.held slot;
    t.held_count <- t.held_count - 1
  end;
  if bit_mem t.mdp_wait slot then begin
    bit_clear t.mdp_wait slot;
    t.mdp_count <- t.mdp_count - 1
  end

(* Unresolved-branch list: append at rename, unlink the moment an entry
   resolves, truncate from the tail on a squash.  Its head therefore *is*
   the oldest unresolved branch — the CONTROL speculation model's query
   is O(1) instead of a memoized ROB scan. *)

let bq_push t (e : Rob_entry.t) =
  if Rob_entry.is_null t.bq_tail then begin
    t.bq_head <- e;
    t.bq_tail <- e
  end
  else begin
    e.Rob_entry.bq_prev <- t.bq_tail;
    t.bq_tail.Rob_entry.bq_next <- e;
    t.bq_tail <- e
  end

let bq_unlink t (e : Rob_entry.t) =
  let p = e.Rob_entry.bq_prev and n = e.Rob_entry.bq_next in
  if Rob_entry.is_null p then t.bq_head <- n
  else p.Rob_entry.bq_next <- n;
  if Rob_entry.is_null n then t.bq_tail <- p
  else n.Rob_entry.bq_prev <- p;
  e.Rob_entry.bq_prev <- Rob_entry.null;
  e.Rob_entry.bq_next <- Rob_entry.null

(* ------------------------------------------------------------------ *)
(* Policy API                                                          *)
(* ------------------------------------------------------------------ *)

(* [Policy.frontier], read directly by the stages. *)
let frontier t =
  match t.spec_model with
  | Policy.Atcommit -> if t.count = 0 then Policy.never - 1 else t.head_seq
  | Policy.Control ->
      if Rob_entry.is_null t.bq_head then Policy.never - 1
      else t.bq_head.Rob_entry.seq

(* Do the L1D's protection bits (or the perfect ProtSet's) cover the
   [size] bytes at [addr]?  A load reads them before its hierarchy walk
   fills the line. *)
let l1d_protected t addr size =
  match t.cfg.Config.prot_mem with
  | Config.Prot_mem_none -> true
  | Config.Prot_mem_l1d -> Cache.protected_bytes t.l1d addr size
  | Config.Prot_mem_perfect ->
      Protset.mem_protected (Option.get t.shadow_prot) addr size

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

(* The api record's closures are built once, here: they are
   loop-invariant, and the stages hand the same record to every policy
   call. *)
let create ?(trace = false) ?(squash_bug = false)
    ?(spec_model = Policy.Atcommit) ?shared_l3 ?decode (cfg : Config.t)
    (policy : Policy.t) (program : Program.t) ~overlays =
  let arch = Exec.init program in
  Exec.overlay arch overlays;
  let { Exec.mem; regs; _ } = arch in
  let l3 =
    match shared_l3 with
    | Some c -> Some c
    | None -> Option.map (Cache.create ~prot:false) cfg.Config.l3
  in
  let plen = Program.length program in
  let tmpl_srcs, tmpl_dsts =
    match decode with
    | Some ((s, _) as d) when Array.length s = plen -> d
    | Some _ -> invalid_arg "Pipeline_state.create: decode/program mismatch"
    | None -> decode_program program
  in
  let stats = Stats.create () in
  let rec t =
    {
      cfg;
      policy;
      spec_model;
      squash_bug;
      program;
      mem;
      regs;
      reg_prot = Array.make Reg.count false;
      rmap_producer = Array.make Reg.count (-1);
      rmap_prot = Array.make Reg.count false;
      rob = Array.make cfg.Config.rob_size Rob_entry.null;
      head_idx = 0;
      head_seq = 0;
      count = 0;
      ready = Array.make ((cfg.Config.rob_size + 31) lsr 5) 0;
      held = Array.make ((cfg.Config.rob_size + 31) lsr 5) 0;
      held_thr = Array.make cfg.Config.rob_size 0;
      held_count = 0;
      held_min = Policy.never;
      mdp_wait = Array.make ((cfg.Config.rob_size + 31) lsr 5) 0;
      mdp_count = 0;
      bq_head = Rob_entry.null;
      bq_tail = Rob_entry.null;
      inflight = Entryq.create ~capacity:64 ();
      lsq_stores = Entryq.create ~capacity:64 ();
      lsq_loads = Entryq.create ~capacity:64 ();
      port_busy_until =
        (match cfg.Config.ports with
        | None -> [||]
        | Some pc -> Array.make (Array.length pc.Config.port_caps) 0);
      port_used =
        (match cfg.Config.ports with
        | None -> [||]
        | Some pc -> Array.make (Array.length pc.Config.port_caps) false);
      tmpl_srcs;
      tmpl_dsts;
      entry_pool = Array.make plen Rob_entry.null;
      squash_scratch = Array.make cfg.Config.rob_size Rob_entry.null;
      fetch_pc = program.Program.main;
      fetch_stalled = false;
      fetch_ring =
        Array.init fetch_buf_capacity (fun _ ->
            { f_pc = -1; f_pred_target = -1; f_ready = -1; f_fetched = -1 });
      fetch_front = 0;
      fetch_len = 0;
      bp = Branch_pred.create cfg.Config.bp;
      mdp = Bytes.make 1024 '\000';
      l1d = Cache.create cfg.Config.l1d;
      l2 = Cache.create ~prot:false cfg.Config.l2;
      l3;
      tlb = Tlb.create cfg.Config.tlb_entries;
      shadow_prot =
        (match cfg.Config.prot_mem with
        | Config.Prot_mem_perfect -> Some (Protset.create ())
        | Config.Prot_mem_l1d | Config.Prot_mem_none -> None);
      trace = Hw_trace.create ~enabled:trace;
      stats;
      hooks = Hooks.create ();
      api =
        {
          Policy.frontier = (fun () -> frontier t);
          peek = (fun seq -> peek t seq);
          stats;
        };
      cycle = 0;
      done_ = false;
      last_commit_cycle = 0;
      progress = false;
      skip_enabled = true;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Watchdog and structured faults                                      *)
(* ------------------------------------------------------------------ *)

(* Abnormal terminations are reported as a [Sim_fault] carrying a
   pipeline-state dump rather than a bare exception, so harnesses can log
   the faulting run and continue with the rest of a grid or campaign. *)

type fault_kind =
  | Commit_stall (* no commit for [heartbeat] cycles: deadlock/livelock *)
  | Budget_exhausted (* the watchdog's hard cycle budget ran out *)
  | Invariant_violation of string (* from [Invariants], in [Fail] mode *)

type fault_info = {
  fault_kind : fault_kind;
  fault_cycle : int;
  fault_fetch_pc : int;
  fault_head_pc : int; (* pc of the ROB head entry; -1 when empty *)
  fault_head_seq : int;
  fault_rob_count : int;
  fault_last_commit : int; (* cycle of the last commit *)
  fault_policy : string;
  fault_core : int; (* core index under [Multicore]; 0 for single-core *)
}

exception Sim_fault of fault_info

let fault t kind =
  {
    fault_kind = kind;
    fault_cycle = t.cycle;
    fault_fetch_pc = t.fetch_pc;
    fault_head_pc =
      (if t.count = 0 then -1 else t.rob.(t.head_idx).Rob_entry.pc);
    fault_head_seq = t.head_seq;
    fault_rob_count = t.count;
    fault_last_commit = t.last_commit_cycle;
    fault_policy = t.policy.Policy.name;
    fault_core = 0;
  }

let fault_kind_name = function
  | Commit_stall -> "commit-stall"
  | Budget_exhausted -> "cycle-budget-exhausted"
  | Invariant_violation _ -> "invariant-violation"

let fault_to_string f =
  let detail =
    match f.fault_kind with Invariant_violation d -> ": " ^ d | _ -> ""
  in
  let core = if f.fault_core > 0 then Printf.sprintf " core=%d" f.fault_core else "" in
  Printf.sprintf
    "%s%s (cycle=%d fetch_pc=%d head_pc=%d head_seq=%d rob=%d last_commit=%d \
     policy=%s%s)"
    (fault_kind_name f.fault_kind)
    detail f.fault_cycle f.fault_fetch_pc f.fault_head_pc f.fault_head_seq
    f.fault_rob_count f.fault_last_commit f.fault_policy core

type watchdog = {
  heartbeat : int;
      (* maximum cycles without a commit before declaring a deadlock or
         livelock (the pipeline keeps cycling but makes no progress) *)
  budget : int option;
      (* hard per-run cycle cap: unlike [fuel] (which returns with
         [finished = false]), exceeding the budget is reported as a fault *)
}

let default_watchdog = { heartbeat = 20_000; budget = None }

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let is_done t = t.done_
