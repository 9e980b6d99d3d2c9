(* The speculative out-of-order core: a cycle-level model in the style
   of the gem5 O3 CPU.

   This module is a thin coordinator.  The machine state lives in
   [Pipeline_state]; each pipeline stage is its own module
   ([Stage_fetch], [Stage_rename], [Stage_issue_exec], [Stage_memory],
   [Stage_commit]) with [Squash] and [Mem_hierarchy] for the recovery
   and L1/L2/L3+TLB paths.  Each stage does the core's own bookkeeping
   where its events happen: it bumps the [Stats] counters, calls the
   Policy defense notifications and records the hardware observer
   trace.  Optional tooling (the speculation-window ledger, the stage
   profiler, the invariant checker) subscribes to the [Hooks] event
   bus; a pipeline fresh from [create] has no subscriber.  See
   docs/architecture.md for the event contract.

   Wrong-path instructions really execute: transient loads fill and
   evict cache lines, divisions occupy the divider, and squashes have
   visible timing — these are the side channels the defenses must
   close.  Defense policies (Section VI) hook in through [Policy.t]:
   they can taint at rename, gate transmitter execution and branch
   resolution, and gate the forwarding of completed results to
   dependents. *)

open Protean_arch

(* Re-exported state types: [t] *is* [Pipeline_state.t], so existing
   consumers (and the invariant checker) keep working unchanged. *)

type t = Pipeline_state.t

(* Structured faults and the watchdog. *)

type fault_kind = Pipeline_state.fault_kind =
  | Commit_stall
  | Budget_exhausted
  | Invariant_violation of string

type fault_info = Pipeline_state.fault_info = {
  fault_kind : fault_kind;
  fault_cycle : int;
  fault_fetch_pc : int;
  fault_head_pc : int;
  fault_head_seq : int;
  fault_rob_count : int;
  fault_last_commit : int;
  fault_policy : string;
  fault_core : int;
}

exception Sim_fault = Pipeline_state.Sim_fault

let fault_kind_name = Pipeline_state.fault_kind_name
let fault_to_string = Pipeline_state.fault_to_string

type watchdog = Pipeline_state.watchdog = {
  heartbeat : int;
  budget : int option;
}

let default_watchdog = Pipeline_state.default_watchdog

(* Precompute the per-pc decode templates for [program], shareable
   across every [create] of the same program (any defense, any core). *)
let decode_program = Pipeline_state.decode_program

let create = Pipeline_state.create

(* Event-driven skip-ahead.

   A cycle is *quiet* when no stage set [progress]: nothing fetched,
   renamed, issued, completed, resolved, committed or squashed, no
   source-readiness flip, and no per-cycle stall accounting (every
   blocked/stall site marks progress, because its counter must
   increment each spun cycle).  Replaying a quiet cycle changes nothing
   except the cycle counter and the in-flight [cycles_left] decrements —
   both of which [apply_skip] performs in bulk — so jumping from one is
   bit-exact: same architectural state, same stats, same trace, same
   event stream as the spinning machine.

   Policy gates are safe to invoke on a quiet cycle: no gate reads the
   clock, and no gate counts a refusal — [transmit_frontier] and
   [may_resolve] are pure in every defense, and [forward_frontier]
   bumps a policy-local counter (ProtDelay's selective-wakeup passes)
   only where it lets a forward through, which marks progress.  Refused
   transmitters and forwards park, and their per-cycle stall counts
   mark progress in every cycle they are counted, so no spun cycle's
   increment is elided.

   [skip_target] is the next-event horizon: the earliest future cycle at
   which the machine can make progress again.  Two event sources exist
   on a quiet machine (port-stall / writeback-deferral cycles are not
   quiet, so [port_busy_until] never bounds a skip):
   - an in-flight computation completes: its tick reaches zero during
     the cycle that starts at [cycle + cycles_left - 1] (post-tick
     [cycles_left] >= 1 on a quiet cycle, a deferred writeback having
     marked progress);
   - the frontend pipe delivers: the fetch-buffer front (earliest
     [f_ready], stamps are monotone) becomes visible to rename at
     [f_ready].
   The jump is capped so the watchdog heartbeat, the cycle budget and
   the driver's fuel bound ([until]) fire on exactly the cycle they
   would have under spinning; a genuinely stuck machine therefore still
   walks into its [Commit_stall] fault.  Undershooting the horizon is
   harmless (the landed-on cycle is quiet again and skips further);
   overshooting is impossible because every source of progress is either
   in the horizon or can only be enabled by an event already in it. *)

let quiet (t : t) =
  let open Pipeline_state in
  t.skip_enabled && (not t.progress) && not t.done_

let skip_target ?(watchdog = default_watchdog) ~until (t : t) =
  let open Pipeline_state in
  let horizon = ref max_int in
  let q = t.inflight in
  let a = q.Entryq.a in
  for i = q.Entryq.front to q.Entryq.back - 1 do
    let h = t.cycle + a.(i).Rob_entry.cycles_left - 1 in
    if h < !horizon then horizon := h
  done;
  (* The quiet cycle's pre-increment clock was [t.cycle - 1].  A front
     item with [f_ready >= t.cycle] was readiness-blocked then and
     enables rename at exactly [f_ready] (an [f_ready = t.cycle] item
     enables the very next cycle: target = t.cycle, no jump).  A front
     item already ready ([f_ready < t.cycle]) means rename was blocked
     structurally (ROB/LQ/SQ full) — hazards only other progress can
     clear, so the in-flight term bounds them. *)
  if not (Pipeline_state.fb_is_empty t) then begin
    let item = Pipeline_state.fb_peek t in
    if item.f_ready >= t.cycle && item.f_ready < !horizon then
      horizon := item.f_ready
  end;
  let target = min !horizon (t.last_commit_cycle + watchdog.heartbeat) in
  let target =
    match watchdog.budget with Some b -> min target (b - 1) | None -> target
  in
  min target until

(* Advance a quiet machine to [target] in one jump: bulk-apply the
   per-cycle decrements the spun cycles would have performed, move the
   clock, and account the span ([Stats.skipped_cycles], and the
   profiler's "skipped" pseudo-stage via [On_skip]). *)
let apply_skip (t : t) ~target =
  let open Pipeline_state in
  let k = target - t.cycle in
  if k > 0 then begin
    let q = t.inflight in
    let a = q.Entryq.a in
    for i = q.Entryq.front to q.Entryq.back - 1 do
      let e = a.(i) in
      e.Rob_entry.cycles_left <- e.Rob_entry.cycles_left - k
    done;
    t.cycle <- target;
    t.stats.Stats.cycles <- target;
    t.stats.Stats.skipped_cycles <- t.stats.Stats.skipped_cycles + k;
    if Pipeline_state.wants t Hooks.k_skip then
      Pipeline_state.emit t (Hooks.On_skip { cycles = k })
  end

(* One cycle: commit → resolve → execute → rename → fetch (reverse stage
   order, so each instruction spends ≥ 1 cycle per stage), then the
   watchdog, then [On_cycle_end].  With a [Profile] observer attached,
   each stage boundary additionally emits [On_stage] (stage ids 0-4);
   without one, [prof] is false and the cycle pays one interest-mask
   test.  Per-cycle checkers (invariants, the paranoid scheduler
   cross-check) subscribe to [On_cycle_end].

   [until] is the driver's fuel bound (exclusive loop bound on
   [t.cycle]) and doubles as the skip-ahead opt-in: when given and the
   cycle ends quiet, the clock jumps to the next-event horizon (capped
   so watchdog/budget/fuel fire unchanged).  Drivers that step without
   [until] get the spinning machine. *)
let step ?(watchdog = default_watchdog) ?until (t : t) =
  let open Pipeline_state in
  let prof = Pipeline_state.wants t Hooks.k_stage in
  t.progress <- false;
  Stage_commit.run t;
  if prof then Pipeline_state.emit t (Hooks.On_stage 0);
  if not t.done_ then begin
    Stage_issue_exec.resolve t;
    if prof then Pipeline_state.emit t (Hooks.On_stage 1);
    Stage_issue_exec.run t;
    if prof then Pipeline_state.emit t (Hooks.On_stage 2);
    Stage_rename.run t;
    if prof then Pipeline_state.emit t (Hooks.On_stage 3);
    Stage_fetch.run t;
    if prof then Pipeline_state.emit t (Hooks.On_stage 4)
  end;
  t.cycle <- t.cycle + 1;
  t.stats.Stats.cycles <- t.cycle;
  if not t.done_ then begin
    if t.cycle - t.last_commit_cycle > watchdog.heartbeat then
      raise (Sim_fault (fault t Commit_stall));
    match watchdog.budget with
    | Some b when t.cycle >= b -> raise (Sim_fault (fault t Budget_exhausted))
    | _ -> ()
  end;
  if Pipeline_state.wants t Hooks.k_cycle_end then
    Pipeline_state.emit t Hooks.On_cycle_end;
  match until with
  | Some u when quiet t ->
      apply_skip t ~target:(skip_target ~watchdog ~until:u t)
  | _ -> ()

type result = {
  stats : Stats.t;
  trace : Hw_trace.t;
  regs : int64 array;
  mem : Memory.t;
  finished : bool; (* halted cleanly (vs. fuel exhausted) *)
}

let is_done = Pipeline_state.is_done

(* Snapshot the results of a pipeline driven externally via [step]. *)
let finish (t : t) =
  let open Pipeline_state in
  {
    stats = t.stats;
    trace = t.trace;
    regs = t.regs;
    mem = t.mem;
    finished = t.done_;
  }

(* [on_start] runs once on the freshly created state, before the first
   cycle — the registration point for observers (profilers) that must
   see the whole run. *)
let run ?trace ?squash_bug ?spec_model ?shared_l3 ?decode
    ?(fuel = 5_000_000) ?(watchdog = default_watchdog) ?on_start
    (cfg : Config.t) (policy : Policy.t) (program : Protean_isa.Program.t)
    ~overlays =
  let t =
    create ?trace ?squash_bug ?spec_model ?shared_l3 ?decode cfg policy
      program ~overlays
  in
  (match on_start with Some f -> f t | None -> ());
  let open Pipeline_state in
  while (not t.done_) && t.cycle < fuel do
    step ~watchdog ~until:fuel t
  done;
  finish t
