(* The speculation-window ledger (leakage provenance).

   A *speculation window* is the lifetime of an unresolved branch in the
   branch queue: it opens when the branch enters at rename
   ([On_window_open]) and closes when the branch leaves — resolved
   correctly, mispredicted, or flushed by an older squash
   ([On_window_close]).  While attached, the ledger records per window:
   its trigger pc and kind, nesting depth, duration, the transmitters
   that executed under it, how many of them had a *tainted* operand (a
   sensitive-role input derived from an access younger than the window's
   trigger — data that exists only transiently), and every defense
   intervention (execution/wakeup/resolution denial) attributed to it.

   The ledger is a plain hook-bus subscriber: nothing here touches
   pipeline structure, and every new emission site is [wants]-guarded, so
   a pipeline without a ledger attached runs the exact same cycles with
   zero extra allocation (asserted by test/test_hotloop.ml and the golden
   corpora).

   Taint shadow: policies only maintain [Rob_entry.taint_root] when a
   taint-tracking defense is active, so the ledger keeps its own
   data-root shadow — per live sequence number, the youngest load whose
   value the entry's result transitively derives from (STT's
   youngest-root-of-taint, tracked independently of any defense).  The
   shadow is a ring indexed [seq mod rob_size] with the stored seq as a
   validity check; a committed producer's root is always older than any
   still-open window's trigger, so stale slots can never create a false
   positive (and recycled slots fail the seq check).

   Leakiness: a window is *leaky* when it closed by its own
   misprediction AND at least one transmitter with a tainted operand
   executed under it — the transient-execution leak shape.  Every other
   window is *benign*; interventions charged to benign windows are the
   over-protection numerator. *)

open Protean_isa
module S = Pipeline_state

(* Gadget-family trigger kinds, per the SoK taxonomy: a conditional
   trigger is the v1 (bounds-check-bypass) shape, an indirect/direct
   jump or call the v2 (branch-target-injection) shape, a return the
   RSB-misprediction shape.  v4 (store bypass) has no trigger branch and
   is classified from order-violation divergence by the attribution
   layer. *)
type trigger = T_cond | T_indirect | T_return

let trigger_family = function
  | T_cond -> "v1"
  | T_indirect -> "v2"
  | T_return -> "rsb"

let trigger_of_op (op : Insn.op) =
  match op with
  | Insn.Jcc _ -> T_cond
  | Insn.Ret -> T_return
  | _ -> T_indirect

(* One transmitter execution, as logged in full mode: the transmitting
   pc, the address it touched, and — when tainted — the pc of the access
   instruction the sensitive operand derives from. *)
type xmit = {
  x_pc : int;
  x_addr : int64;
  x_src_pc : int; (* -1 when the operand was not tainted *)
  x_tainted : bool;
}

type window = {
  w_id : int; (* monotone ledger-wide id (seqs are recycled) *)
  w_pc : int; (* trigger branch pc *)
  w_seq : int; (* trigger seq — unique among *open* windows *)
  w_depth : int; (* enclosing open windows at open time *)
  w_trigger : trigger;
  w_opened : int; (* cycle *)
  mutable w_closed : int; (* cycle; -1 while open *)
  mutable w_cause : Hooks.window_close_cause;
  mutable w_xmits : int;
  mutable w_tainted : int;
  mutable w_interventions : int;
  mutable w_log : xmit list; (* full mode only, newest first *)
}

type t = {
  full : bool; (* retain per-window transmitter logs (attribution mode) *)
  cap : int; (* ROB size: live seqs map injectively to ring slots *)
  (* Data-root shadow rings, indexed [seq mod cap]. *)
  sh_seq : int array; (* the seq a slot currently describes, or -1 *)
  sh_droot : int array; (* youngest transitive load root, or -1 *)
  sh_pc : int array; (* pc of that root load, or -1 *)
  (* Open windows, seq-ascending by construction (opens happen in rename
     order); bounded by the branch-queue length <= ROB size. *)
  mutable open_arr : window array;
  mutable open_n : int;
  (* Summary counters. *)
  mutable next_id : int;
  mutable opened : int;
  mutable resolved : int;
  mutable mispredicted : int;
  mutable flushed : int;
  mutable unclosed : int; (* still open at detach: finalized benign *)
  mutable cycles_sum : int; (* total closed-window duration *)
  mutable xmits : int;
  mutable tainted : int;
  mutable leaky_n : int;
  mutable iv_leaky : int;
  mutable iv_benign : int;
  mutable order_violations : int;
  (* Retained windows (newest first; [leaky] always, [closed] in full
     mode). *)
  mutable leaky : window list;
  mutable closed : window list;
  mutable glog : xmit list; (* full mode: every transmitter, any window *)
}

let subscriber_name = "spec-window"

let kinds =
  [
    Hooks.k_window_open;
    Hooks.k_window_close;
    Hooks.k_rename;
    Hooks.k_load_executed;
    Hooks.k_exec_blocked;
    Hooks.k_wakeup_blocked;
    Hooks.k_resolve_blocked;
    Hooks.k_order_violation;
  ]

(* Data root of producer seq [p]: -1 for committed/unknown producers
   (their slot was recycled or predates the ledger), which is exact for
   taint purposes — a committed producer's root is older than every open
   window's trigger. *)
let droot led p =
  if p < 0 then -1
  else
    let i = p mod led.cap in
    if led.sh_seq.(i) = p then led.sh_droot.(i) else -1

let root_pc led p =
  if p < 0 then -1
  else
    let i = p mod led.cap in
    if led.sh_seq.(i) = p then led.sh_pc.(i) else -1

(* Maintain the shadow: a load's own value is a fresh root; anything
   else inherits the youngest root among its producers. *)
let on_rename led (e : Rob_entry.t) =
  let seq = e.Rob_entry.seq in
  let i = seq mod led.cap in
  if Rob_entry.is_load e then begin
    led.sh_seq.(i) <- seq;
    led.sh_droot.(i) <- seq;
    led.sh_pc.(i) <- e.Rob_entry.pc
  end
  else begin
    let best = ref (-1) and best_pc = ref (-1) in
    let prods = e.Rob_entry.src_producer in
    for k = 0 to Array.length prods - 1 do
      let p = prods.(k) in
      let d = droot led p in
      if d > !best then begin
        best := d;
        best_pc := root_pc led p
      end
    done;
    led.sh_seq.(i) <- seq;
    led.sh_droot.(i) <- !best;
    led.sh_pc.(i) <- !best_pc
  end

(* Innermost open window covering [seq]: the youngest trigger at or
   before it (open windows are seq-ascending, so scan from the tail). *)
let innermost led seq =
  let rec go k =
    if k < 0 then None
    else
      let w = led.open_arr.(k) in
      if w.w_seq <= seq then Some w else go (k - 1)
  in
  go (led.open_n - 1)

let push_open led w =
  let n = Array.length led.open_arr in
  if led.open_n >= n then begin
    let grown = Array.make (max 8 (2 * n)) w in
    Array.blit led.open_arr 0 grown 0 n;
    led.open_arr <- grown
  end;
  led.open_arr.(led.open_n) <- w;
  led.open_n <- led.open_n + 1

let open_window led (st : S.t) (e : Rob_entry.t) =
  let w =
    {
      w_id = led.next_id;
      w_pc = e.Rob_entry.pc;
      w_seq = e.Rob_entry.seq;
      w_depth = led.open_n;
      w_trigger = trigger_of_op e.Rob_entry.insn.Insn.op;
      w_opened = st.S.cycle;
      w_closed = -1;
      w_cause = Hooks.W_resolved;
      w_xmits = 0;
      w_tainted = 0;
      w_interventions = 0;
      w_log = [];
    }
  in
  led.next_id <- led.next_id + 1;
  led.opened <- led.opened + 1;
  push_open led w

(* Youngest data root among [e]'s sensitive-role operands, with the pc
   of the root access: tainted w.r.t. window [win_seq] when the root is
   younger than the trigger (the operand's value is transient). *)
let sensitive_root led (e : Rob_entry.t) =
  let best = ref (-1) and best_pc = ref (-1) in
  let srcs = e.Rob_entry.srcs in
  for k = 0 to Array.length srcs - 1 do
    if Insn.is_sensitive (snd srcs.(k)) then begin
      let p = e.Rob_entry.src_producer.(k) in
      let d = droot led p in
      if d > !best then begin
        best := d;
        best_pc := root_pc led p
      end
    end
  done;
  (!best, !best_pc)

let on_xmit led (e : Rob_entry.t) =
  match innermost led e.Rob_entry.seq with
  | None ->
      if led.full then
        led.glog <-
          {
            x_pc = e.Rob_entry.pc;
            x_addr = e.Rob_entry.addr;
            x_src_pc = -1;
            x_tainted = false;
          }
          :: led.glog
  | Some w ->
      w.w_xmits <- w.w_xmits + 1;
      let root, src_pc = sensitive_root led e in
      let tn = root > w.w_seq in
      if tn then w.w_tainted <- w.w_tainted + 1;
      if led.full then begin
        let x =
          {
            x_pc = e.Rob_entry.pc;
            x_addr = e.Rob_entry.addr;
            x_src_pc = (if tn then src_pc else -1);
            x_tainted = tn;
          }
        in
        w.w_log <- x :: w.w_log;
        led.glog <- x :: led.glog
      end

let on_intervention led (e : Rob_entry.t) =
  match innermost led e.Rob_entry.seq with
  | Some w -> w.w_interventions <- w.w_interventions + 1
  | None -> led.iv_benign <- led.iv_benign + 1

let is_leaky w = w.w_cause = Hooks.W_mispredicted && w.w_tainted > 0

let finalize_closed led w =
  led.cycles_sum <- led.cycles_sum + (w.w_closed - w.w_opened);
  (match w.w_cause with
  | Hooks.W_resolved -> led.resolved <- led.resolved + 1
  | Hooks.W_mispredicted -> led.mispredicted <- led.mispredicted + 1
  | Hooks.W_flushed -> led.flushed <- led.flushed + 1);
  led.xmits <- led.xmits + w.w_xmits;
  led.tainted <- led.tainted + w.w_tainted;
  if is_leaky w then begin
    led.leaky_n <- led.leaky_n + 1;
    led.iv_leaky <- led.iv_leaky + w.w_interventions;
    led.leaky <- w :: led.leaky
  end
  else led.iv_benign <- led.iv_benign + w.w_interventions;
  if led.full then led.closed <- w :: led.closed

let close_window led (st : S.t) (entry : Rob_entry.t) cause =
  let seq = entry.Rob_entry.seq in
  let idx = ref (-1) in
  (try
     for k = led.open_n - 1 downto 0 do
       if led.open_arr.(k).w_seq = seq then begin
         idx := k;
         raise Exit
       end
     done
   with Exit -> ());
  if !idx >= 0 then begin
    let w = led.open_arr.(!idx) in
    for k = !idx to led.open_n - 2 do
      led.open_arr.(k) <- led.open_arr.(k + 1)
    done;
    led.open_n <- led.open_n - 1;
    w.w_closed <- st.S.cycle;
    w.w_cause <- cause;
    finalize_closed led w
  end

let handler led (st : S.t) (ev : Hooks.event) =
  match ev with
  | Hooks.On_rename e -> on_rename led e
  | Hooks.On_window_open e -> open_window led st e
  | Hooks.On_window_close { entry; cause } -> close_window led st entry cause
  | Hooks.On_load_executed e -> on_xmit led e
  | Hooks.On_exec_blocked e | Hooks.On_resolve_blocked e ->
      on_intervention led e
  | Hooks.On_wakeup_blocked { consumer; _ } -> on_intervention led consumer
  | Hooks.On_order_violation _ ->
      led.order_violations <- led.order_violations + 1
  | _ -> ()

let create ~full ~rob_size =
  {
    full;
    cap = max 1 rob_size;
    sh_seq = Array.make (max 1 rob_size) (-1);
    sh_droot = Array.make (max 1 rob_size) (-1);
    sh_pc = Array.make (max 1 rob_size) (-1);
    open_arr = [||];
    open_n = 0;
    next_id = 0;
    opened = 0;
    resolved = 0;
    mispredicted = 0;
    flushed = 0;
    unclosed = 0;
    cycles_sum = 0;
    xmits = 0;
    tainted = 0;
    leaky_n = 0;
    iv_leaky = 0;
    iv_benign = 0;
    order_violations = 0;
    leaky = [];
    closed = [];
    glog = [];
  }

(* Attach a ledger to a pipeline (any time before or during a run).
   [full] additionally retains every closed window with its transmitter
   log — the attribution input; summary mode keeps counters plus the
   (rare) leaky windows only. *)
let attach ?(full = false) (st : S.t) =
  let led = create ~full ~rob_size:(S.rob_size st) in
  Hooks.subscribe ~kinds st.S.hooks ~name:subscriber_name (handler led);
  led

(* Unsubscribe and finalize: still-open windows (the branch never left
   the queue before the run ended) are charged as benign — they provably
   never squashed. *)
let detach (st : S.t) led =
  Hooks.unsubscribe st.S.hooks subscriber_name;
  for k = 0 to led.open_n - 1 do
    let w = led.open_arr.(k) in
    led.unclosed <- led.unclosed + 1;
    led.xmits <- led.xmits + w.w_xmits;
    led.tainted <- led.tainted + w.w_tainted;
    led.iv_benign <- led.iv_benign + w.w_interventions;
    if led.full then led.closed <- w :: led.closed
  done;
  led.open_n <- 0

(* Summary counters, in a fixed order.  All values merge by summation
   across cells/shards (no max-style members), matching how the harness
   folds per-cell counters into Prometheus families. *)
let counters led =
  [
    ("windows_opened", led.opened);
    ("windows_resolved", led.resolved);
    ("windows_mispredicted", led.mispredicted);
    ("windows_flushed", led.flushed);
    ("windows_unclosed", led.unclosed);
    ("windows_leaky", led.leaky_n);
    ("window_cycles", led.cycles_sum);
    ("transmitters", led.xmits);
    ("tainted_transmitters", led.tainted);
    ("interventions_leaky", led.iv_leaky);
    ("interventions_benign", led.iv_benign);
    ("order_violations", led.order_violations);
  ]

(* Retained windows, oldest first (by id). *)
let leaky_windows led = List.rev led.leaky
let closed_windows led = List.rev led.closed

(* Full-mode global transmitter log, program order. *)
let global_log led = List.rev led.glog
let order_violations led = led.order_violations
