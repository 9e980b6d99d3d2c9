(* A reorder-buffer entry: one in-flight instruction with its renamed
   sources, results, memory/branch state, ProtISA protection tags, the
   defense policies' taint bookkeeping, and the intrusive links of the
   O(active) issue scheduler (unresolved-branch list, producer→consumer
   wakeup chain).  Whether the issue scan visits the entry is not a
   field: it is the entry's slot bit in [Pipeline_state.ready] (or, for
   a parked entry, in [held] or [mdp_wait]). *)

open Protean_isa

type mem_kind = M_none | M_load | M_store

type t = {
  mutable seq : int;
      (* mutable only for entry recycling ([reset]); never reassigned
         while the entry is live in the ROB *)
  pc : int;
  insn : Insn.t;
  (* Renamed sources, in the order of [Insn.reads].  [srcs] and [dsts]
     are immutable and may be shared between entries of the same pc. *)
  srcs : (Reg.t * Insn.role) array;
  src_producer : int array; (* producer seq, or -1 when read from regfile *)
  src_val : int64 array;
  src_ready : bool array;
  src_prot : bool array; (* ProtISA protection tags captured at rename *)
  (* Destinations, in the order of [Insn.writes]. *)
  dsts : Reg.t array;
  dst_val : int64 array;
  mutable out_prot : bool;
  (* Execution status. *)
  mutable issued : bool;
  mutable cycles_left : int;
  mutable executed : bool; (* results computed and visible *)
  mutable fault : bool; (* division fault pending (machine clear at commit) *)
  mutable port : int;
      (* execution port bound at issue under [Config.ports]; -1 when
         unbound (not yet issued, or the structural model is off) *)
  (* Memory access state (LSQ), set when the entry issues: until then
     its address is unknown and [mem_prot] is false. *)
  mem_kind : mem_kind;
  mutable addr : int64;
  mutable msize : int;
  mutable mem_value : int64; (* loaded value / store data *)
  mutable mem_prot : bool; (* LSQ protection bit (Section IV-C2b) *)
  mutable fwd_from : int; (* seq of the store this load forwarded from *)
  (* Branch state. *)
  is_branch : bool;
  mutable pred_target : int;
  mutable actual_target : int;
  mutable mispredicted : bool;
  mutable resolved : bool;
  (* Defense policy state. *)
  mutable taint_root : int;
      (* seq of the youngest speculative access instruction this entry's
         data transitively depends on; -1 when untainted (STT's YRoT) *)
  mutable access_at_rename : bool;
  mutable late_access : bool;
      (* ProtTrack false negative: predicted no-access, read protected
         memory; triggers the ProtDelay fallback (Section VI-B2b) *)
  mutable fwd_block_store : int;
      (* seq of a tainted store this load forwarded from; blocks wakeup
         until the store's data untaints (Section VI-B2c) *)
  mutable pred_no_access : bool;
  pol_src_pub : bool array;
      (* per-source scratch for policies that track their own notion of
         public data (SPT's transmitted-state), parallel to [srcs] *)
  mutable pol_out_pub : bool;
  (* O(active) scheduler state.  All links are [null]-terminated; [null]
     itself is a shared sentinel that must never be mutated.  An entry
     is *dormant* — unissued, and every non-ready source waits on a live,
     un-executed producer — when its slot's ready bit is clear; the issue
     scan does not visit it until a producer executes. *)
  wl_next : t array;
      (* per-source wakeup-chain links.  Invariant: source slot [i] is a
         member of its producer's waiter chain iff the slot is non-ready
         and the producer is live and un-executed (membership is created
         at rename and cleared by the producer's execution or a squash).
         A chain node is the pair (entry, slot): [wl_next.(i)]/[wl_slot.(i)]
         name the next node. *)
  wl_slot : int array;
  mutable waiters : t; (* head entry of the chain of waiting consumers *)
  mutable waiters_slot : int; (* slot of the head node *)
  mutable bq_prev : t; (* unresolved-branch list (seq-ascending) *)
  mutable bq_next : t; (* also the per-pc entry pool's free-list link *)
  (* Timing, for the timing-based adversary and statistics. *)
  mutable t_fetch : int;
  mutable t_rename : int;
  mutable t_issue : int;
  mutable t_complete : int;
}

(* The shared sentinel: one immutable-in-practice entry standing for
   "no entry" everywhere an [option] would otherwise allocate.  Never
   write through it. *)
let rec null =
  {
    seq = -1;
    pc = -1;
    insn = Insn.make Insn.Nop;
    srcs = [||];
    src_producer = [||];
    src_val = [||];
    src_ready = [||];
    src_prot = [||];
    dsts = [||];
    dst_val = [||];
    out_prot = false;
    issued = false;
    cycles_left = -1;
    executed = false;
    fault = false;
    port = -1;
    mem_kind = M_none;
    addr = 0L;
    msize = 0;
    mem_value = 0L;
    mem_prot = false;
    fwd_from = -1;
    is_branch = false;
    pred_target = -1;
    actual_target = -1;
    mispredicted = false;
    resolved = false;
    taint_root = -1;
    access_at_rename = false;
    late_access = false;
    fwd_block_store = -1;
    pred_no_access = false;
    pol_src_pub = [||];
    pol_out_pub = false;
    wl_next = [||];
    wl_slot = [||];
    waiters = null;
    waiters_slot = 0;
    bq_prev = null;
    bq_next = null;
    t_fetch = -1;
    t_rename = -1;
    t_issue = -1;
    t_complete = -1;
  }

let is_null e = e == null

let mem_kind_of op =
  if Insn.is_load op then M_load
  else if Insn.is_store op then M_store
  else M_none

(* [srcs]/[dsts] may be passed in (shared, per-pc templates built at
   rename) to avoid recomputing [Insn.reads]/[Insn.writes] per entry. *)
let create ?srcs ?dsts ~seq ~pc ~(insn : Insn.t) ~t_fetch () =
  let srcs =
    match srcs with Some a -> a | None -> Array.of_list (Insn.reads insn.op)
  in
  let dsts =
    match dsts with Some a -> a | None -> Array.of_list (Insn.writes insn.op)
  in
  let n = Array.length srcs in
  {
    seq;
    pc;
    insn;
    srcs;
    src_producer = Array.make n (-1);
    src_val = Array.make n 0L;
    src_ready = Array.make n false;
    src_prot = Array.make n false;
    dsts;
    dst_val = Array.make (Array.length dsts) 0L;
    out_prot = insn.prot;
    issued = false;
    cycles_left = -1;
    executed = false;
    fault = false;
    port = -1;
    mem_kind = mem_kind_of insn.op;
    addr = 0L;
    msize = 0;
    mem_value = 0L;
    mem_prot = false;
    fwd_from = -1;
    is_branch = Insn.is_branch insn.op;
    pred_target = -1;
    actual_target = -1;
    mispredicted = false;
    resolved = false;
    taint_root = -1;
    access_at_rename = false;
    late_access = false;
    fwd_block_store = -1;
    pred_no_access = false;
    pol_src_pub = Array.make n false;
    pol_out_pub = false;
    wl_next = Array.make n null;
    wl_slot = Array.make n (-1);
    waiters = null;
    waiters_slot = 0;
    bq_prev = null;
    bq_next = null;
    t_fetch;
    t_rename = -1;
    t_issue = -1;
    t_complete = -1;
  }

(* Recycle a dead entry for a new instruction at the *same pc* (the
   per-pc pool in [Pipeline_state]): every mutable field and array slot
   is restored to exactly what [create] would produce — or, for the
   slots noted below, is provably overwritten before its next read — so
   a reset entry is observably a fresh one.  The immutable fields ([pc], [insn],
   [srcs], [dsts], [mem_kind], [is_branch]) are correct by the pool's
   same-pc keying; the caller checks the insn is physically unchanged.
   Cheaper than [create]: no allocation, and — the real win — no minor
   collections copying short-lived-but-surviving entries into the major
   heap. *)
let reset e ~seq ~t_fetch =
  let n = Array.length e.srcs in
  e.seq <- seq;
  (* [src_producer], [src_prot], [src_val], [pol_src_pub] and [out_prot]
     are *not* cleared: rename unconditionally writes every
     [src_producer]/[src_prot] slot and [out_prot], [src_val] is written
     before its [src_ready] flag flips (and only read after), and the
     SPT policy's [on_rename] fills every [pol_src_pub] slot before any
     gate reads it — so stale values are dead on arrival.  The
     [wl_next]/[wl_slot] pairs aren't either: a slot is read only while
     it is a wakeup-chain member (walks start at a producer's
     [waiters]), membership is established by [register_waiters]
     overwriting the pair, and both chain teardowns ([complete_entry],
     the squash cleanup) null the member slots they visit.  The loops
     that remain are hand-rolled: [n] is tiny (<= 3) and [Array.fill] is
     an out-of-line C call. *)
  for i = 0 to n - 1 do
    e.src_ready.(i) <- false
  done;
  for i = 0 to Array.length e.dst_val - 1 do
    e.dst_val.(i) <- 0L
  done;
  e.issued <- false;
  e.cycles_left <- -1;
  e.executed <- false;
  e.fault <- false;
  e.port <- -1;
  e.addr <- 0L;
  e.msize <- 0;
  e.mem_value <- 0L;
  e.mem_prot <- false;
  e.fwd_from <- -1;
  e.pred_target <- -1;
  e.actual_target <- -1;
  e.mispredicted <- false;
  e.resolved <- false;
  e.taint_root <- -1;
  e.access_at_rename <- false;
  e.late_access <- false;
  e.fwd_block_store <- -1;
  e.pred_no_access <- false;
  e.pol_out_pub <- false;
  (* The link fields are already null on every pool path: [waiters] is
     nulled by [complete_entry] (commit pooling) or the squash flush,
     [bq_prev]/[bq_next] by the unlink that removed a branch from its
     list.  Only [bq_next] needs re-nulling — the free list borrows it.
     The entry's ready bit belongs to its ROB slot, which rename sets. *)
  e.waiters_slot <- 0;
  e.bq_next <- null;
  e.t_fetch <- t_fetch;
  e.t_rename <- -1;
  e.t_issue <- -1;
  e.t_complete <- -1

let is_load e = e.mem_kind = M_load
let is_store e = e.mem_kind = M_store
let is_transmitter e = Insn.is_transmitter e.insn.Insn.op

(* Transmitters whose execution (as opposed to resolution) the policy can
   delay ([Policy.transmit_frontier]): memory accesses and divisions.
   Branch resolution is gated separately. *)
let execution_gated e =
  match e.insn.Insn.op with
  | Insn.Load _ | Insn.Store _ | Insn.Push _ | Insn.Pop _ | Insn.Ret
  | Insn.Call _ | Insn.Div _ | Insn.Rem _ ->
      true
  | _ -> false

(* Port-capability class for the structural execution-port model.
   Memory kind wins (RET/POP occupy the load AGU path, CALL/PUSH the
   store path — they access memory even though they also redirect
   control); then branches, then the unpipelined mul/div unit. *)
let op_class e : Config.op_class =
  match e.mem_kind with
  | M_load -> Config.Cls_load
  | M_store -> Config.Cls_store
  | M_none -> (
      if e.is_branch then Config.Cls_branch
      else
        match e.insn.Insn.op with
        | Insn.Div _ | Insn.Rem _ | Insn.Binop (Insn.Mul, _, _) ->
            Config.Cls_muldiv
        | _ -> Config.Cls_alu)

(* Does this entry have a protected *sensitive* register operand?  Access
   transmitters (Definition 1) additionally include loads whose sensitive
   memory input is protected, checked at execute via [mem_prot].  The
   searches below are top-level recursions with explicit arguments: a
   local [loop] closing over [e] would allocate on every gate poll. *)
let rec protected_sensitive_from e i =
  i < Array.length e.srcs
  && ((Insn.is_sensitive (snd e.srcs.(i)) && e.src_prot.(i))
     || protected_sensitive_from e (i + 1))

let protected_sensitive_reg e = protected_sensitive_from e 0

(* Any protected register input at all (including data inputs). *)
let rec protected_input_from e i =
  i < Array.length e.src_prot
  && (e.src_prot.(i) || protected_input_from e (i + 1))

let protected_reg_input e = protected_input_from e 0

let rec find_src_from e reg role i =
  if i >= Array.length e.srcs then -1
  else
    let r, ro = e.srcs.(i) in
    if Reg.equal r reg && ro = role then i else find_src_from e reg role (i + 1)

let find_src e reg role = find_src_from e reg role 0
