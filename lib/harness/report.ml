(* The telemetry reporting layer: turns a memoized experiment session
   (plus the supervisor's lifecycle bus and wall-clock cell spans) into
   the three exporter formats — Prometheus/JSON metrics, Chrome
   trace-event JSON, and collapsed-stack flamegraphs.

   Split of responsibilities:
   - *deterministic* metrics (pipeline counters from [Stats.t], defense
     policy counters, flame totals) derive purely from the session
     cache, so serial / [-j N] / [--shards N] runs render byte-identical
     metric families;
   - *runtime* metrics (the [protean_supervisor_*] families) and the
     trace record wall-clock process topology and are excluded from
     determinism comparisons (they describe *this* run's execution, not
     the simulated machine).

   Collection is free when no exporter asked for it: the session's
   [Experiment.options] ([Campaign.setup] derives them from the exporter
   flags) leave every collection mode off, so no profiler subscribes, no
   policy counters are read, and no span is recorded. *)

module Metrics = Protean_telemetry.Metrics
module Trace = Protean_telemetry.Trace
module Flame = Protean_telemetry.Flame
module Twindow = Protean_telemetry.Window
module Json = Protean_telemetry.Json
module Stats = Protean_ooo.Stats
module Spec_window = Protean_ooo.Spec_window
module E = Experiment

type config = {
  metrics_out : string option;
  trace_out : string option;
  flamegraph_out : string option;
  attr_out : string option;
      (* per-cell speculation-window summary + over-protection report *)
}

let wanted c =
  c.metrics_out <> None || c.trace_out <> None || c.flamegraph_out <> None
  || c.attr_out <> None

(* Runtime registry: supervisor lifecycle counters, filled by the bus
   observer as the run executes. *)
let runtime = Metrics.create ()

(* ------------------------------------------------------------------ *)
(* Build/host metadata                                                 *)
(* ------------------------------------------------------------------ *)

(* Self-describing runs: host parallelism, toolchain, source revision
   and any active escape-hatch env vars, so a metrics snapshot (or a
   bench JSON) records the environment that produced it — the ROADMAP's
   1-core-host bench caveat made explicit. *)

let escape_hatches = [ "PROTEAN_NET_FAULT"; "PROTEAN_NO_SPAWN" ]

(* Source revision from .git/HEAD (one level of ref indirection), no
   subprocess; "unknown" outside a checkout. *)
let git_rev () =
  let first_line path =
    match open_in path with
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> match input_line ic with l -> Some l | exception _ -> None)
    | exception _ -> None
  in
  let short s = String.sub s 0 (min 12 (String.length s)) in
  match first_line (Filename.concat ".git" "HEAD") with
  | Some line when String.length line > 5 && String.sub line 0 5 = "ref: " ->
      let r = String.sub line 5 (String.length line - 5) in
      (match first_line (Filename.concat ".git" (String.trim r)) with
      | Some rev -> short (String.trim rev)
      | None -> "unknown")
  | Some rev when String.trim rev <> "" -> short (String.trim rev)
  | _ -> "unknown"

let build_info_labels () =
  [
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("rev", git_rev ());
    ("hatches", String.concat "," (List.filter Shard.env_flag escape_hatches));
  ]

(* Registered once into the runtime registry, which merges into every
   metrics output path (files, /metrics scrapes, worker or parent). *)
let () =
  Metrics.set
    (Metrics.gauge runtime
       ~help:"build/host metadata (constant 1; the labels are the data)"
       ~labels:(build_info_labels ()) "protean_build_info")
    1

(* --check-certs: the [Experiment.options.on_cert] observer, feeding
   each audited certificate into protean_cert_* counters.  These live in
   the *runtime* registry, not the deterministic session one: the
   frontend cache is per-process, so audit counts vary with the
   -j/--shards process topology even though the verdicts do not. *)
let count_cert ~style ~claims ~violations =
  let c name help =
    Metrics.counter runtime ~help ~labels:[ ("pass", style) ]
      ("protean_cert_" ^ name)
  in
  Metrics.inc (c "checked_total" "protection certificates audited");
  Metrics.inc ~n:claims
    (c "claims_total" "individual certificate claims audited");
  Metrics.inc ~n:violations
    (c "violations_total" "certificate claims refuted by the checker")

(* --checkpoint: the cells a run resumed instead of computing, in every
   mode.  A runtime family, like the supervisor's: how much of the
   campaign this process computed is a fact about this run. *)
let count_resumed n =
  Metrics.inc ~n
    (Metrics.counter runtime ~help:"cells resumed from checkpoints"
       "protean_supervisor_checkpoint_cells_total")

(* ------------------------------------------------------------------ *)
(* Deterministic metrics from the session cache                        *)
(* ------------------------------------------------------------------ *)

(* Cell keys are "suite/name|defense|config|spec_model|squash_bug|mc";
   the first three become the per-cell label set. *)
let labels_of_key key =
  match String.split_on_char '|' key with
  | bench :: defense :: core :: _ ->
      [ ("bench", bench); ("core", core); ("defense", defense) ]
  | _ -> [ ("cell", key) ]

(* One row per [Stats.t] field worth a family of its own (the marker
   position is bookkeeping, not a count, and is skipped). *)
let stat_families : (string * string * (Stats.t -> int)) list =
  [
    ( "protean_pipeline_cycles_total",
      "simulated cycles",
      fun s -> s.Stats.cycles );
    ( "protean_pipeline_committed_total",
      "instructions committed",
      fun s -> s.Stats.committed );
    ( "protean_pipeline_fetched_total",
      "instructions fetched (wrong path included)",
      fun s -> s.Stats.fetched );
    ( "protean_cycles_skipped_total",
      "idle cycles the event-driven scheduler skipped instead of \
       spinning (a subset of protean_pipeline_cycles_total)",
      fun s -> s.Stats.skipped_cycles );
    ( "protean_pipeline_squashes_total",
      "pipeline squashes",
      fun s -> s.Stats.squashes );
    ( "protean_pipeline_squashed_insns_total",
      "instructions flushed by squashes",
      fun s -> s.Stats.squashed_insns );
    ( "protean_pipeline_branch_mispredicts_total",
      "branch mispredictions",
      fun s -> s.Stats.branch_mispredicts );
    ( "protean_pipeline_machine_clears_total",
      "machine clears (faulting commits)",
      fun s -> s.Stats.machine_clears );
    ( "protean_pipeline_mem_order_violations_total",
      "memory order violations",
      fun s -> s.Stats.mem_order_violations );
    ( "protean_pipeline_loads_executed_total",
      "loads executed",
      fun s -> s.Stats.loads_executed );
    ( "protean_pipeline_loads_protected_mem_total",
      "loads that read protected memory",
      fun s -> s.Stats.loads_protected_mem );
    ( "protean_cache_l1d_accesses_total",
      "L1D accesses",
      fun s -> s.Stats.l1d_accesses );
    ( "protean_cache_l1d_misses_total",
      "L1D misses",
      fun s -> s.Stats.l1d_misses );
    ( "protean_defense_transmitter_stall_cycles_total",
      "cycles ready transmitters were stalled by the policy",
      fun s -> s.Stats.transmitter_stall_cycles );
    ( "protean_defense_wakeup_delay_cycles_total",
      "cycles completed results were held back from dependents",
      fun s -> s.Stats.wakeup_delay_cycles );
    ( "protean_defense_resolution_delay_cycles_total",
      "cycles executed branches were denied resolution",
      fun s -> s.Stats.resolution_delay_cycles );
    ( "protean_predictor_lookups_total",
      "access-predictor lookups",
      fun s -> s.Stats.access_pred_lookups );
    ( "protean_predictor_mispredicts_total",
      "access-predictor mispredictions among retired loads",
      fun s -> s.Stats.access_pred_mispredicts );
    ( "protean_predictor_false_negatives_total",
      "access-predictor false negatives (ProtDelay fallbacks)",
      fun s -> s.Stats.access_pred_false_negatives );
  ]

(* Ledger counter names → metric families.  "windows_opened" →
   protean_window_opened_total, "window_cycles" →
   protean_window_cycles_total, "transmitters" →
   protean_window_transmitters_total: strip the ledger's own
   windows_/window_ prefix, then re-root under the one family prefix. *)
let window_family name =
  let strip p s =
    let lp = String.length p in
    if String.length s > lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  let core =
    match strip "windows_" name with
    | Some s -> s
    | None -> ( match strip "window_" name with Some s -> s | None -> name)
  in
  "protean_window_" ^ core ^ "_total"

(* Per-cell measured-cycle histogram bounds: decades from 1k to 10M
   (cells beyond the fuel limit cannot exist). *)
let cell_cycle_buckets =
  [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

let flame_total fl = List.fold_left (fun acc (_, n) -> acc + n) 0 fl

(* Build the deterministic registry from every cached cell.  Hashtable
   iteration order varies with insertion history (serial vs parallel
   fill), but every fold below is a commutative integer sum and
   snapshots sort by (family, labels), so the rendered bytes do not. *)
let of_session (session : E.session) =
  let reg = Metrics.create () in
  let cells =
    Metrics.counter reg ~help:"experiment cells computed"
      "protean_harness_cells_total"
  in
  let faults =
    Metrics.counter reg ~help:"cells resolved to the faulted sentinel"
      "protean_harness_cell_faults_total"
  in
  Hashtbl.iter
    (fun key (r : E.run_result) ->
      let labels = labels_of_key key in
      Metrics.inc cells;
      if Float.is_nan r.E.cycles then Metrics.inc faults
      else begin
        let h =
          Metrics.histogram reg
            ~help:"measured cycles per experiment cell"
            ~labels:[ ("defense", List.assoc "defense" labels) ]
            ~buckets:cell_cycle_buckets "protean_harness_cell_cycles"
        in
        Metrics.observe h (int_of_float r.E.cycles)
      end;
      List.iter
        (fun (st : Stats.t) ->
          List.iter
            (fun (family, help, field) ->
              let v = field st in
              if v <> 0 then
                Metrics.inc ~n:v (Metrics.counter reg ~help ~labels family))
            stat_families;
          (* Structural-port families (nonzero only when the cell ran a
             [Config.ports] config): per-port issue counts, and the
             stall attribution split into structural causes (no free
             port, CDB budget) vs protection causes (the defense's
             delay gates) — both labeled by kind so dashboards can
             stack them against total cycles. *)
          Array.iteri
            (fun port v ->
              if v <> 0 then
                Metrics.inc ~n:v
                  (Metrics.counter reg
                     ~help:"issues bound to each execution port"
                     ~labels:(("port", string_of_int port) :: labels)
                     "protean_port_busy_total"))
            st.Stats.port_busy;
          let stall family kind help v =
            if v <> 0 then
              Metrics.inc ~n:v
                (Metrics.counter reg ~help
                   ~labels:(("kind", kind) :: labels)
                   family)
          in
          stall "protean_stall_structural_cycles_total" "port"
            "entry-cycles ready instructions found no compatible free port"
            st.Stats.port_structural_stall_cycles;
          stall "protean_stall_structural_cycles_total" "writeback"
            "entry-cycles completions were deferred by the CDB budget"
            st.Stats.wb_queue_stall_cycles;
          stall "protean_stall_protection_cycles_total" "transmitter"
            "entry-cycles ready transmitters were stalled by the policy"
            st.Stats.transmitter_stall_cycles;
          stall "protean_stall_protection_cycles_total" "wakeup"
            "entry-cycles completed results were held back from dependents"
            st.Stats.wakeup_delay_cycles;
          stall "protean_stall_protection_cycles_total" "resolution"
            "entry-cycles executed branches were denied resolution"
            st.Stats.resolution_delay_cycles)
        r.E.stats;
      List.iter
        (fun (name, v) ->
          let m =
            Metrics.counter reg ~help:"defense policy-local counter" ~labels
              ("protean_defense_" ^ name ^ "_total")
          in
          Metrics.inc ~n:v m)
        r.E.policy_metrics;
      List.iter
        (fun (name, v) ->
          if v <> 0 then
            Metrics.inc ~n:v
              (Metrics.counter reg
                 ~help:"speculation-window ledger counter" ~labels
                 (window_family name)))
        r.E.window;
      match r.E.flame with
      | [] -> ()
      | fl ->
          let m =
            Metrics.counter reg
              ~help:
                "cycles attributed by the commit-gap flame profiler \
                 (equals protean_pipeline_cycles_total when flame export \
                 is on)"
              ~labels "protean_flame_cycles_total"
          in
          Metrics.inc ~n:(flame_total fl) m)
    session.E.cache;
  (* Shared-frontend accounting: every cell tagged with a frontend
     group key shared that group's one workload build + instrumentation
     + decode; reuse per group = group size - 1 (the first cell paid
     for the build).  Zero groups — sharing disabled, or no cells —
     emit no family at all, keeping sharing-off snapshots byte-stable
     with pre-sharing ones. *)
  let fe_groups = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (r : E.run_result) ->
      if r.E.frontend <> "" then
        Hashtbl.replace fe_groups r.E.frontend
          (1
          + Option.value ~default:0 (Hashtbl.find_opt fe_groups r.E.frontend)))
    session.E.cache;
  Hashtbl.iter
    (fun fe n ->
      if n > 1 then
        Metrics.inc ~n:(n - 1)
          (Metrics.counter reg
             ~help:"cells that reused a shared frontend build"
             ~labels:[ ("frontend", fe) ]
             "protean_frontend_reuse_total"))
    fe_groups;
  reg

let flame_of_session (session : E.session) =
  let acc = Flame.create () in
  Hashtbl.iter
    (fun _ (r : E.run_result) ->
      List.iter (fun (stack, n) -> Flame.add_stack acc stack n) r.E.flame)
    session.E.cache;
  acc

(* ------------------------------------------------------------------ *)
(* Supervisor lifecycle observer                                       *)
(* ------------------------------------------------------------------ *)

(* Subscribe the returned handler to a supervisor bus: lifecycle events
   become [protean_supervisor_*] counters in the runtime registry, plus
   instants on [trace] when given. *)
let supervisor_observer ?trace () =
  let c name help =
    Metrics.counter runtime ~help ("protean_supervisor_" ^ name)
  in
  let spawns = c "spawns_total" "worker processes spawned" in
  let heartbeats = c "heartbeats_total" "worker heartbeat frames" in
  let cells_done = c "cells_done_total" "cells completed by workers" in
  let cell_faults = c "cell_faults_total" "structured in-worker cell faults" in
  let kills = c "kills_total" "workers killed (deadline or corruption)" in
  let exits = c "worker_exits_total" "worker processes reaped" in
  let retries = c "retries_total" "shard retry attempts" in
  let bisects = c "bisects_total" "shard bisections" in
  let poisoned = c "poisoned_cells_total" "cells poisoned after retries" in
  let fallbacks = c "fallbacks_total" "in-process fallbacks" in
  let merged = c "merged_cells_total" "cells in the final merge" in
  let connects = c "workers_connected_total" "dial-in workers accepted" in
  let rejects = c "workers_rejected_total" "dial-in handshakes refused" in
  let leases = c "leases_granted_total" "work batches leased to workers" in
  let disconnects =
    c "workers_disconnected_total" "dial-in workers lost mid-campaign"
  in
  fun (ev : Supervisor.event) ->
    (match trace with
    | Some tr -> (
        match ev with
        | Supervisor.Heartbeat _ | Supervisor.Cell_done _
        | Supervisor.Worker_log _ | Supervisor.Worker_stderr _ ->
            () (* too chatty for instants; counted below *)
        | ev ->
            Trace.instant tr ~cat:"supervisor"
              (Supervisor.event_to_string ev))
    | None -> ());
    match ev with
    | Supervisor.Spawn _ -> Metrics.inc spawns
    | Supervisor.Heartbeat _ -> Metrics.inc heartbeats
    | Supervisor.Cell_done _ -> Metrics.inc cells_done
    | Supervisor.Cell_fault _ -> Metrics.inc cell_faults
    | Supervisor.Kill _ -> Metrics.inc kills
    | Supervisor.Worker_exit _ -> Metrics.inc exits
    | Supervisor.Retry _ -> Metrics.inc retries
    | Supervisor.Bisect _ -> Metrics.inc bisects
    | Supervisor.Poisoned _ -> Metrics.inc poisoned
    | Supervisor.Fallback _ -> Metrics.inc fallbacks
    | Supervisor.Merged { cells; _ } -> Metrics.inc ~n:cells merged
    | Supervisor.Worker_connected _ -> Metrics.inc connects
    | Supervisor.Worker_rejected _ -> Metrics.inc rejects
    | Supervisor.Lease_granted _ -> Metrics.inc leases
    | Supervisor.Worker_disconnected _ -> Metrics.inc disconnects
    | Supervisor.Listening _ | Supervisor.Worker_log _
    | Supervisor.Worker_stderr _ ->
        ()

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Deterministic session metrics merged with the runtime families. *)
let final_snapshot session =
  Metrics.merge
    (Metrics.snapshot (of_session session))
    (Metrics.snapshot runtime)

(* Scrape body for a live /metrics HTTP listener: rendered per request,
   so mid-campaign scrapes see the runtime families (supervisor
   lifecycle counters) the observer is filling in real time. *)
let live_metrics session () = Metrics.to_prometheus (final_snapshot session)

(* Bind the live /metrics HTTP listener for [--metrics-listen],
   degrading gracefully when the address is unavailable (port already
   bound, unresolvable interface): a structured warning and [None], so
   the run continues without live metrics instead of aborting — losing
   a scrape endpoint is never worth losing the campaign. *)
let listen_metrics ~src addr body =
  match Protean_telemetry.Http_listener.create ~addr body with
  | h ->
      Protean_telemetry.Log.info ~src "serving /metrics on port %d"
        (Protean_telemetry.Http_listener.port h);
      Some h
  | exception Unix.Unix_error (err, fn, _) ->
      Protean_telemetry.Log.warn ~src
        "--metrics-listen %s unavailable (%s in %s); continuing without \
         live metrics"
        addr (Unix.error_message err) fn;
      None
  | exception Failure reason ->
      Protean_telemetry.Log.warn ~src
        "--metrics-listen %s unavailable (%s); continuing without live \
         metrics"
        addr reason;
      None

(* --attr-out: the per-cell speculation-window report.  One JSON object
   per cell that carried window counters (sorted by key — deterministic
   across -j/--shards), each with its over-protection ratio, plus
   campaign-wide totals; the rendered text summary goes to stdout so an
   interactive run shows the audit without opening the file. *)
let attr_report session =
  let cells =
    Hashtbl.fold
      (fun key (r : E.run_result) acc ->
        if r.E.window = [] then acc else (key, r.E.window) :: acc)
      session.E.cache []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let totals =
    List.fold_left
      (fun acc (_, w) -> Twindow.merge_counters acc w)
      [] cells
  in
  (cells, totals)

let op_json = function
  | Some r -> Printf.sprintf "%.4f" r
  | None -> "null"

let attr_json cells totals =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"cells\": [\n";
  List.iteri
    (fun i (key, w) ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"cell\": %s, \"window\": %s, \"over_protection\": %s}"
           (Json.to_string (Json.Str key))
           (Json.to_string (Twindow.counters_to_json w))
           (op_json (Twindow.over_protection w))))
    cells;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n  \"totals\": %s,\n  \"over_protection\": %s\n}\n"
       (Json.to_string (Twindow.counters_to_json totals))
       (op_json (Twindow.over_protection totals)));
  Buffer.contents b

let render_attr cells totals =
  let b = Buffer.create 1024 in
  Buffer.add_string b "speculation-window audit\n";
  List.iter
    (fun (key, w) ->
      let op =
        match Twindow.over_protection w with
        | Some r -> Printf.sprintf "over-protection %.2f" r
        | None -> "no interventions"
      in
      Buffer.add_string b
        (Printf.sprintf "  %-48s leaky %d/%d  %s\n" key
           (Twindow.counter "windows_leaky" w)
           (Twindow.counter "windows_opened" w)
           op))
    cells;
  (match Twindow.over_protection totals with
  | Some r ->
      Buffer.add_string b
        (Printf.sprintf "  total over-protection ratio: %.4f\n" r)
  | None -> Buffer.add_string b "  total: no interventions recorded\n");
  Buffer.contents b

(* Write the metric, trace and flamegraph exports [c] asked for, the
   trace from the run's recorder.  [.json] metric paths get the JSON
   exporter, anything else Prometheus text. *)
let write_exports ?trace c ~snapshot ~flame =
  Option.iter
    (fun path ->
      let snap = snapshot () in
      write_file path
        (if Filename.check_suffix path ".json" then Metrics.to_json snap
         else Metrics.to_prometheus snap))
    c.metrics_out;
  (match (c.trace_out, trace) with
  | Some path, Some tr -> write_file path (Trace.to_chrome_json tr)
  | _ -> ());
  Option.iter
    (fun path -> write_file path (Flame.to_folded (flame ())))
    c.flamegraph_out

(* Everything [c] asked for from an experiment session. *)
let write_outputs c (session : E.session) =
  write_exports ?trace:session.E.opts.E.trace c
    ~snapshot:(fun () -> final_snapshot session)
    ~flame:(fun () -> flame_of_session session);
  match c.attr_out with
  | Some path ->
      let cells, totals = attr_report session in
      write_file path (attr_json cells totals);
      print_string (render_attr cells totals)
  | None -> ()
