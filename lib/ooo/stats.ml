(* Execution statistics gathered by the pipeline, used for the performance
   evaluation (normalized runtime = cycles / unsafe-baseline cycles) and
   for the diagnostic breakdowns of Section IX.

   Each counter has one writer: the stage module (or [Mem_hierarchy],
   [Squash], [Pipeline]'s clock and skip-ahead) at the site of its event.
   The three [access_pred_*] counters are ProtTrack's, written by the
   policy through [Policy.api.stats]. *)

type t = {
  mutable cycles : int;
  mutable marker_cycle : int;
      (* cycle at which the measurement marker committed (0 = none):
         benchmarks store to a magic address after their warmup phase,
         mirroring the paper's simpoint warmup methodology *)
  mutable committed : int;
  mutable fetched : int;
  mutable squashes : int;
  mutable squashed_insns : int;
  mutable branch_mispredicts : int;
  mutable machine_clears : int;
  mutable mem_order_violations : int;
  mutable l1d_accesses : int;
  mutable l1d_misses : int;
  mutable transmitter_stall_cycles : int;
  mutable wakeup_delay_cycles : int;
  mutable resolution_delay_cycles : int;
  mutable access_pred_lookups : int;
  mutable access_pred_mispredicts : int;
  mutable access_pred_false_negatives : int;
  mutable loads_executed : int;
  mutable loads_protected_mem : int;
  (* Structural-port model counters (all zero when [Config.ports] is
     [None]).  [port_busy] is grown on demand to the highest port seen;
     protection stalls (the three *_delay/_stall counters above) and
     these structural stalls together attribute every denied cycle. *)
  mutable port_busy : int array; (* per port: cycles an issue was bound *)
  mutable port_structural_stall_cycles : int;
      (* ready entry found no compatible free port (entry-cycles) *)
  mutable wb_queue_stall_cycles : int;
      (* completion deferred by the CDB broadcast budget (entry-cycles) *)
  mutable skipped_cycles : int;
      (* quiet cycles advanced in bulk by event-driven skip-ahead;
         always <= [cycles], and 0 when skip-ahead is disabled — every
         other counter is unaffected by skipping (a skippable cycle by
         definition changes no counter) *)
}

let create () =
  {
    cycles = 0;
    marker_cycle = 0;
    committed = 0;
    fetched = 0;
    squashes = 0;
    squashed_insns = 0;
    branch_mispredicts = 0;
    machine_clears = 0;
    mem_order_violations = 0;
    l1d_accesses = 0;
    l1d_misses = 0;
    transmitter_stall_cycles = 0;
    wakeup_delay_cycles = 0;
    resolution_delay_cycles = 0;
    access_pred_lookups = 0;
    access_pred_mispredicts = 0;
    access_pred_false_negatives = 0;
    loads_executed = 0;
    loads_protected_mem = 0;
    port_busy = [||];
    port_structural_stall_cycles = 0;
    wb_queue_stall_cycles = 0;
    skipped_cycles = 0;
  }

(* Count an issue bound to [port], growing the per-port array on first
   sight of a new port (at most once per port per run). *)
let bump_port_busy t port =
  if Array.length t.port_busy <= port then begin
    let grown = Array.make (port + 1) 0 in
    Array.blit t.port_busy 0 grown 0 (Array.length t.port_busy);
    t.port_busy <- grown
  end;
  t.port_busy.(port) <- t.port_busy.(port) + 1

(* Cycles after the measurement marker (whole run when no marker). *)
let measured_cycles t = t.cycles - t.marker_cycle

let ipc t = if t.cycles = 0 then 0.0 else float_of_int t.committed /. float_of_int t.cycles

let pp fmt t =
  Format.fprintf fmt
    "cycles=%d committed=%d ipc=%.3f squashes=%d mispredicts=%d mclears=%d \
     mem-order=%d l1d=%d/%d xmit-stall=%d wakeup-delay=%d"
    t.cycles t.committed (ipc t) t.squashes t.branch_mispredicts
    t.machine_clears t.mem_order_violations t.l1d_misses t.l1d_accesses
    t.transmitter_stall_cycles t.wakeup_delay_cycles
