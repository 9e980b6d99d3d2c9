(* Telemetry-layer tests: registry semantics, deterministic snapshots
   and merges (serial vs [-j N] vs the shard frame protocol), exporter
   well-formedness (Prometheus text, JSON, Chrome trace events, folded
   flamegraphs), the structured logger, and the profiler's
   detach-flush path (a profiler unsubscribed mid-run must still
   deliver its partial samples). *)

module Metrics = Protean_telemetry.Metrics
module Trace = Protean_telemetry.Trace
module Flame = Protean_telemetry.Flame
module Tlog = Protean_telemetry.Log
module Hooks = Protean_ooo.Hooks
module Profile = Protean_ooo.Profile
module Pipeline = Protean_ooo.Pipeline
module Config = Protean_ooo.Config
module Stats = Protean_ooo.Stats
module Policy = Protean_ooo.Policy
module Suite = Protean_workloads.Suite
module E = Protean_harness.Experiment
module Report = Protean_harness.Report
module Supervisor = Protean_harness.Supervisor
module Campaign = Protean_harness.Campaign
module Json = Protean_harness.Shard.Json
module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Parallel = Protean_harness.Parallel
module Defense = Protean_defense.Defense
module Twindow = Protean_telemetry.Window

(* --- registry semantics ---------------------------------------------- *)

let test_registry_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"h" ~labels:[ ("b", "2"); ("a", "1") ] "c" in
  Metrics.inc c;
  Metrics.inc ~n:41 c;
  let g = Metrics.gauge reg "g" in
  Metrics.set g 7;
  Metrics.set g 3; (* gauges keep the max: order-free merges *)
  let h = Metrics.histogram reg ~buckets:[| 10; 100 |] "h" in
  List.iter (Metrics.observe h) [ 5; 50; 500; 10 ];
  let snap = Metrics.snapshot reg in
  Alcotest.(check int) "three samples" 3 (List.length snap);
  let find f = List.find (fun s -> s.Metrics.s_family = f) snap in
  Alcotest.(check int) "counter" 42 (find "c").Metrics.s_value;
  Alcotest.(check (list (pair string string)))
    "labels sorted at registration"
    [ ("a", "1"); ("b", "2") ]
    (find "c").Metrics.s_labels;
  Alcotest.(check int) "gauge keeps max" 7 (find "g").Metrics.s_value;
  let hs = find "h" in
  Alcotest.(check int) "histogram sum" 565 hs.Metrics.s_value;
  Alcotest.(check int) "histogram count" 4 hs.Metrics.s_count;
  (* Buckets are non-cumulative internally: [5,10] / [50] / [500]. *)
  Alcotest.(check (array int)) "buckets" [| 2; 1; 1 |] hs.Metrics.s_buckets;
  (* Re-registering the same (family, labels) returns the same cell. *)
  let c' =
    Metrics.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "c"
  in
  Metrics.inc c';
  Alcotest.(check int) "same cell" 43
    (List.find (fun s -> s.Metrics.s_family = "c") (Metrics.snapshot reg))
      .Metrics.s_value

let fill_a reg =
  Metrics.inc ~n:5 (Metrics.counter reg ~labels:[ ("x", "1") ] "m");
  Metrics.set (Metrics.gauge reg "peak") 10;
  Metrics.observe (Metrics.histogram reg ~buckets:[| 10 |] "lat") 3

let fill_b reg =
  Metrics.inc ~n:7 (Metrics.counter reg ~labels:[ ("x", "1") ] "m");
  Metrics.inc ~n:2 (Metrics.counter reg ~labels:[ ("x", "2") ] "m");
  Metrics.set (Metrics.gauge reg "peak") 4;
  Metrics.observe (Metrics.histogram reg ~buckets:[| 10 |] "lat") 30

let test_merge_deterministic () =
  let ra = Metrics.create () and rb = Metrics.create () in
  fill_a ra;
  fill_b rb;
  let a = Metrics.snapshot ra and b = Metrics.snapshot rb in
  let ab = Metrics.merge a b and ba = Metrics.merge b a in
  Alcotest.(check string) "merge is commutative (rendered bytes)"
    (Metrics.to_prometheus ab) (Metrics.to_prometheus ba);
  (* The merge must equal filling one registry with both shard's
     increments: sums for counters/histograms, max for gauges. *)
  let whole = Metrics.create () in
  fill_a whole;
  fill_b whole;
  Alcotest.(check string) "merge == serial fill"
    (Metrics.to_prometheus (Metrics.snapshot whole))
    (Metrics.to_prometheus ab);
  (* absorb round-trips a snapshot into a registry. *)
  let rt = Metrics.create () in
  Metrics.absorb rt ab;
  Alcotest.(check string) "absorb round-trip"
    (Metrics.to_prometheus ab)
    (Metrics.to_prometheus (Metrics.snapshot rt))

let test_prometheus_format () =
  let reg = Metrics.create () in
  fill_a reg;
  Metrics.inc
    (Metrics.counter reg ~labels:[ ("odd", "a\\b\"c\nd") ] "esc_total");
  let text = Metrics.to_prometheus (Metrics.snapshot reg) in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then begin
        (* every sample line is "name[{labels}] <integer>" *)
        match String.rindex_opt l ' ' with
        | None -> Alcotest.failf "unparseable sample line: %s" l
        | Some i ->
            let v = String.sub l (i + 1) (String.length l - i - 1) in
            Alcotest.(check bool)
              (Printf.sprintf "integer value in %S" l)
              true
              (match int_of_string_opt v with Some _ -> true | None -> false)
      end)
    lines;
  Alcotest.(check bool) "HELP emitted" true
    (List.exists (fun l -> String.length l > 6 && String.sub l 0 6 = "# HELP") lines);
  (* label values escape backslash, quote and newline *)
  Alcotest.(check bool) "label escaping" true
    (List.exists
       (fun l ->
         String.length l > 9 && String.sub l 0 9 = "esc_total"
         && String.index_opt l '\n' = None)
       lines);
  (* histogram renders cumulative buckets with +Inf == _count *)
  Alcotest.(check bool) "+Inf bucket present" true
    (List.exists
       (fun l ->
         String.length l > 10
         && String.sub l 0 10 = "lat_bucket"
         && String.index_opt l 'I' <> None)
       lines)

let test_json_exporter_wellformed () =
  let reg = Metrics.create () in
  fill_a reg;
  fill_b reg;
  match Json.of_string (Metrics.to_json (Metrics.snapshot reg)) with
  | Json.List items ->
      Alcotest.(check bool) "non-empty" true (items <> []);
      List.iter
        (fun item ->
          match (Json.member "family" item, Json.member "value" item) with
          | Json.Str _, Json.Int _ -> ()
          | _ -> Alcotest.fail "metric item missing family/value")
        items
  | _ -> Alcotest.fail "metrics JSON did not parse as an array"

(* --- Chrome trace export --------------------------------------------- *)

let test_chrome_trace_wellformed () =
  let tr = Trace.create ~epoch:1000.0 () in
  Trace.name_process tr ~pid:0 "protean";
  Trace.name_thread tr ~pid:0 ~tid:1 "worker \"one\"";
  Trace.span tr ~cat:"cell" ~t0:1000.5 ~t1:1001.25 "milc|unsafe|P-core";
  Trace.instant tr ~cat:"supervisor" "spawn shard=0\nnewline";
  Trace.counter tr "cells" [ ("done", 3) ];
  let s = Trace.to_chrome_json tr in
  match Json.of_string s with
  | Json.List items ->
      Alcotest.(check int) "all events exported" 5 (List.length items);
      let phases =
        List.map
          (fun e ->
            match Json.member "ph" e with
            | Json.Str p -> p
            | _ -> Alcotest.fail "event without ph")
          items
      in
      Alcotest.(check (list string))
        "phases in record order"
        [ "M"; "M"; "X"; "i"; "C" ]
        phases;
      List.iter
        (fun e ->
          match Json.member "name" e with
          | Json.Str _ -> ()
          | _ -> Alcotest.fail "event without name")
        items;
      (* the span's microsecond arithmetic: 0.75s duration, 0.5s start *)
      let span = List.nth items 2 in
      Alcotest.(check bool) "span ts/dur" true
        (Json.member "ts" span = Json.Int 500_000
        && Json.member "dur" span = Json.Int 750_000)
  | _ -> Alcotest.fail "trace did not parse as a JSON array"

(* --- flamegraph folding ---------------------------------------------- *)

let test_flame_folding () =
  let fl = Flame.create () in
  Flame.add fl ~frames:[ "unsafe"; "milc"; "ARCH"; "kernel" ] 10;
  Flame.add fl ~frames:[ "unsafe"; "milc"; "ARCH"; "kernel" ] 5;
  Flame.add fl ~frames:[ "unsafe"; "milc"; "(no-commit)" ] 2;
  (* separators and whitespace in frames must be neutralized *)
  Flame.add fl ~frames:[ "un;safe"; "fn with space" ] 1;
  Flame.add fl ~frames:[ "dropme" ] 0;
  Alcotest.(check int) "total" 18 (Flame.total fl);
  let folded = Flame.to_folded fl in
  Alcotest.(check string) "folded, sorted, cleaned"
    "un_safe;fn_with_space 1\n\
     unsafe;milc;(no-commit) 2\n\
     unsafe;milc;ARCH;kernel 15\n"
    folded;
  let fl2 = Flame.of_list (Flame.to_list fl) in
  Flame.merge ~into:fl2 fl;
  Alcotest.(check int) "merge doubles" 36 (Flame.total fl2)

(* --- structured logger ----------------------------------------------- *)

let with_captured_log f =
  let lines = ref [] in
  Tlog.set_sink (fun l -> lines := l :: !lines);
  Fun.protect
    ~finally:(fun () ->
      Tlog.reset_sink ();
      Tlog.set_json false;
      Tlog.set_level Tlog.Info)
    (fun () ->
      f ();
      List.rev !lines)

let test_log_levels_and_json () =
  let lines =
    with_captured_log (fun () ->
        Tlog.debug ~src:"t" "suppressed at info";
        Tlog.warn ~src:"t" ~fields:[ ("k", "v") ] "be%s" "ware";
        Tlog.set_json true;
        Tlog.error ~src:"t" ~fields:[ ("path", "a\"b") ] "broke")
  in
  match lines with
  | [ text; json ] ->
      Alcotest.(check string) "text rendering"
        "[warn] t: beware (k=v)" text;
      (match Json.of_string json with
      | Json.Obj _ as j ->
          Alcotest.(check bool) "json fields" true
            (Json.member "level" j = Json.Str "error"
            && Json.member "src" j = Json.Str "t"
            && Json.member "msg" j = Json.Str "broke"
            && Json.member "path" j = Json.Str "a\"b")
      | _ -> Alcotest.fail "json log line did not parse as an object")
  | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls)

(* Harness diagnostics route through the logger, so one sink captures
   lines from every domain/worker (satellite: structured [log_line]). *)
let test_log_line_routed () =
  let lines =
    with_captured_log (fun () -> E.log_line "cell %s took %dms" "x" 3)
  in
  Alcotest.(check (list string))
    "log_line routes through Telemetry.Log"
    [ "[info] harness: cell x took 3ms" ]
    lines

(* --- profiler detach flush (hooks [on_remove]) ----------------------- *)

let test_on_remove_finalizer () =
  let bus : unit Hooks.t = Hooks.create () in
  let flushed = ref (-1) in
  Hooks.subscribe bus ~name:"p"
    ~kinds:[ Hooks.k_cycle_end ]
    ~on_remove:(fun () ->
      (* the finalizer observes the bus *after* removal: interest bits
         are already clear, so a flush cannot re-enter the handler *)
      flushed := List.length (Hooks.subscribers bus))
    (fun () _ -> ());
  Alcotest.(check bool) "wanted before" true (Hooks.wanted bus Hooks.k_cycle_end);
  Hooks.unsubscribe bus "p";
  Alcotest.(check int) "finalizer ran after removal" 0 !flushed;
  Alcotest.(check bool) "interest cleared" false
    (Hooks.wanted bus Hooks.k_cycle_end);
  (* unsubscribing a name with no on_remove (or absent) is a no-op *)
  Hooks.unsubscribe bus "p"

let tiny =
  {
    Suite.name = "tiny";
    suite = "test";
    klass = Protean_isa.Program.Arch;
    kind = Suite.Single (fun () -> Helpers.store_load_sum 8);
  }

let stats_cycles (r : E.run_result) =
  List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.cycles) 0 r.E.stats

(* What --metrics-out and --flamegraph-out turn on. *)
let collecting =
  { E.default_options with E.policy_metrics = true; flame = true }

(* A profiler detached mid-run (here: at the natural end of the run,
   through [Profile.detach]'s [on_remove] flush) must account for every
   cycle: folded weights sum exactly to the run's cycle count. *)
let test_flame_totals_equal_cycles () =
  let session = E.create_session ~opts:collecting () in
  let r = E.run session (E.spec tiny E.cfg_stt) in
  let flame_total = List.fold_left (fun acc (_, n) -> acc + n) 0 r.E.flame in
  Alcotest.(check bool) "flame non-empty" true (r.E.flame <> []);
  Alcotest.(check int) "flame total == cycles" (stats_cycles r) flame_total

let test_detach_flushes_partial_samples () =
  let profiled = ref None in
  let state = ref None in
  let program = Helpers.store_load_sum 8 in
  let policy = Protean_defense.Defense.unsafe.Protean_defense.Defense.make () in
  let r =
    Pipeline.run Config.test_core policy program ~overlays:[]
      ~on_start:(fun t ->
        let p = Profile.create () in
        Profile.attach ~sink:(fun snap -> profiled := Some snap) p t;
        state := Some t)
  in
  (* mid-run detach from the caller's perspective: the run is over but
     the profiler was never asked to report — unsubscribing must flush *)
  Alcotest.(check bool) "no flush before detach" true (!profiled = None);
  (match !state with Some t -> Profile.detach t | None -> ());
  match !profiled with
  | None -> Alcotest.fail "detach did not flush the profiler"
  | Some snap ->
      let attributed =
        List.fold_left (fun acc (_, n) -> acc + n) 0 snap.Profile.snap_flame
        + snap.Profile.snap_residual
      in
      Alcotest.(check int) "flush accounts for every cycle"
        r.Pipeline.stats.Stats.cycles attributed

(* --- collection switches off => telemetry is free -------------------- *)

let test_telemetry_off_is_free () =
  let session = E.create_session () in
  let r = E.run session (E.spec tiny E.cfg_stt) in
  Alcotest.(check bool) "no policy counters collected" true
    (r.E.policy_metrics = []);
  Alcotest.(check bool) "no flame collected" true (r.E.flame = [])

(* --- end-to-end determinism: serial vs -j 4 vs frame round-trip ------ *)

let grid session =
  List.iter
    (fun cfg -> ignore (E.run session (E.spec tiny cfg)))
    [ E.cfg_unsafe; E.cfg_stt; E.cfg_spt; E.cfg_spt_sb ]

let render session = Metrics.to_prometheus (Metrics.snapshot (Report.of_session session))

(* The shard path: every cell's result crosses the frame protocol as
   JSON.  A session holding [session]'s cache after the round trip. *)
let shipped session =
  let s = E.create_session () in
  Hashtbl.iter
    (fun key r ->
      Hashtbl.replace s.E.cache key
        (Supervisor.Grid.result_of_json (Supervisor.Grid.result_to_json r)))
    session.E.cache;
  s

let test_session_metrics_deterministic () =
  let serial = E.create_session ~opts:collecting () in
  grid serial;
  let parallel = E.create_session ~opts:collecting () in
  Campaign.grid (Helpers.campaign ~jobs:4 ()) ~src:"test" parallel (fun () ->
      grid parallel);
  Alcotest.(check string) "serial == -j 4 (rendered bytes)" (render serial)
    (render parallel);
  (* Round-tripping the whole cache must preserve the rendered registry
     and the folded flamegraph byte-for-byte. *)
  let shipped = shipped serial in
  Alcotest.(check string) "frame round-trip preserves metrics" (render serial)
    (render shipped);
  Alcotest.(check string) "frame round-trip preserves flame"
    (Flame.to_folded (Report.flame_of_session serial))
    (Flame.to_folded (Report.flame_of_session shipped));
  (* ≥ the acceptance floor of distinct families for a real grid *)
  let fams = Metrics.families (Metrics.snapshot (Report.of_session serial)) in
  Alcotest.(check bool)
    (Printf.sprintf "family count sane (%d)" (List.length fams))
    true
    (List.length fams >= 15)

(* --- speculation-window ledger: grid determinism --------------------- *)

(* With window collection on, the ledger's summary counters ride the
   run_result (and the frame codec's "wn" member) exactly like the
   policy metrics: serial, -j 4 and the shard round-trip must render the
   same registry bytes, window families included. *)
let windowed = { E.default_options with E.window = true }

let test_window_counters_deterministic () =
  let serial = E.create_session ~opts:windowed () in
  grid serial;
  let parallel = E.create_session ~opts:windowed () in
  Campaign.grid (Helpers.campaign ~jobs:4 ()) ~src:"test" parallel (fun () ->
      grid parallel);
  Alcotest.(check string) "serial == -j 4 (rendered bytes)" (render serial)
    (render parallel);
  Alcotest.(check string) "frame round-trip preserves window counters"
    (render serial)
    (render (shipped serial));
  let fams = Metrics.families (Metrics.snapshot (Report.of_session serial)) in
  Alcotest.(check bool) "window family exported" true
    (List.mem "protean_window_opened_total" fams);
  (* ... and the counters really came from the runs *)
  Hashtbl.iter
    (fun key (r : E.run_result) ->
      Alcotest.(check bool) (key ^ " saw windows") true
        (Twindow.counter "windows_opened" r.E.window > 0))
    serial.E.cache

(* The options belong to the session, not the process: two sessions
   under different options fill the same cells at the same time, and
   each result carries exactly its own session's telemetry — and the
   same simulation as a plain session's. *)
let test_sessions_keep_their_options () =
  let plain = E.create_session () in
  grid plain;
  let flamed = E.create_session ~opts:collecting () in
  let ledgered = E.create_session ~opts:windowed () in
  ignore
    (Parallel.map ~jobs:2
       [| (fun () -> grid flamed); (fun () -> grid ledgered) |]);
  Hashtbl.iter
    (fun key (p : E.run_result) ->
      let f = Hashtbl.find flamed.E.cache key in
      let w = Hashtbl.find ledgered.E.cache key in
      Alcotest.(check bool) (key ^ ": same simulation") true
        (f.E.stats = p.E.stats && w.E.stats = p.E.stats);
      Alcotest.(check bool) (key ^ ": flame only where collected") true
        (f.E.flame <> [] && w.E.flame = [] && p.E.flame = []);
      Alcotest.(check bool) (key ^ ": window only where collected") true
        (w.E.window <> [] && f.E.window = [] && p.E.window = []);
      Alcotest.(check bool) (key ^ ": no policy counters in the ledger run")
        true
        (w.E.policy_metrics = [] && p.E.policy_metrics = []))
    plain.E.cache

(* --- leakage attribution: deterministic across drivers --------------- *)

(* Every program of a G_gadget campaign is the known v1
   bounds-check-bypass gadget, so the unsafe baseline must violate and
   the attribution must name the probe transmitter with family v1 —
   identically from the serial driver, the -j 4 driver, and the sharded
   path (cells computed in two shard halves, shipped through the cell
   codec, merged by [Fuzz.finish], exactly what protean-fuzz does under
   --shards). *)
let gadget_campaign =
  {
    Fuzz.default_campaign with
    Fuzz.programs = 4;
    inputs_per_program = 2;
    seed = 11;
    gen_klass = Gen.G_gadget;
    mode_of = Fuzz.arch_seq;
  }

let over_the_wire campaign (c : Fuzz.cell) =
  Fuzz.cell_of_json c.Fuzz.c_index
    (Json.of_string (Json.to_string (Fuzz.cell_to_json campaign c)))

let sharded_report campaign d =
  let half = campaign.Fuzz.programs / 2 in
  let shard ids = List.map (fun i -> over_the_wire campaign (Fuzz.test_cell campaign d i)) ids in
  (* The second shard reports first: the merge orders cells itself. *)
  Fuzz.finish ~shrink:false campaign d
    (shard (List.init (campaign.Fuzz.programs - half) (( + ) half))
    @ shard (List.init half Fun.id))

let test_attribution_deterministic () =
  let campaign = gadget_campaign in
  let d = Defense.unsafe in
  let serial = Fuzz.run_resilient ~shrink:false campaign d in
  let par =
    Parallel.map ~jobs:4
      (Array.init campaign.Fuzz.programs (fun i () -> Fuzz.test_cell campaign d i))
    |> Array.to_list |> Fuzz.finish ~shrink:false campaign d
  in
  let sharded = sharded_report campaign d in
  match serial.Fuzz.r_attribution with
  | None -> Alcotest.fail "gadget campaign produced no attribution"
  | Some a ->
      Alcotest.(check string) "gadget family" "v1" a.Twindow.at_family;
      Alcotest.(check bool) "transmitter pc named" true
        (a.Twindow.at_xmit_pc >= 0);
      Alcotest.(check bool) "source access pc named" true
        (a.Twindow.at_src_pc >= 0);
      Alcotest.(check bool) "window identified" true
        (a.Twindow.at_window_id >= 0 && a.Twindow.at_window_depth >= 0);
      Alcotest.(check bool) "serial == -j 4" true
        (par.Fuzz.r_attribution = Some a);
      Alcotest.(check bool) "serial == sharded" true
        (sharded.Fuzz.r_attribution = Some a);
      Alcotest.(check bool) "same merged outcome" true
        (sharded.Fuzz.r_outcome = serial.Fuzz.r_outcome
        && par.Fuzz.r_outcome = serial.Fuzz.r_outcome)

(* The cell codec carries every field of a cell, including the
   certificate verdict of a certified campaign and a skip reason that
   needs JSON escaping. *)
let test_cell_codec_roundtrip () =
  let campaign = { gadget_campaign with Fuzz.check_certs = true } in
  let cell =
    {
      Fuzz.c_index = 5;
      c_outcome =
        {
          Fuzz.tests = 3;
          skipped = 1;
          violations = 2;
          false_positives = 1;
          example = Some (11 + (5 * 7919), 2);
          certs_checked = 4;
          cert_claims = 90;
          cert_violations = 1;
          cert_example = Some "cert-violation: main pass=ct pc=3: \"rax\"";
        };
      c_skip = Some "worker said \"no\"\nthen \001 died";
    }
  in
  Alcotest.(check bool) "certified cell round-trips" true
    (over_the_wire campaign cell = cell);
  let plain = over_the_wire gadget_campaign cell in
  Alcotest.(check int) "plain campaigns drop the certificate counters" 0
    plain.Fuzz.c_outcome.Fuzz.cert_violations

let tests =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "merge deterministic" `Quick test_merge_deterministic;
    Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
    Alcotest.test_case "json exporter well-formed" `Quick
      test_json_exporter_wellformed;
    Alcotest.test_case "chrome trace well-formed" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "flame folding" `Quick test_flame_folding;
    Alcotest.test_case "log levels and json" `Quick test_log_levels_and_json;
    Alcotest.test_case "log_line routed through logger" `Quick
      test_log_line_routed;
    Alcotest.test_case "hooks on_remove finalizer" `Quick
      test_on_remove_finalizer;
    Alcotest.test_case "flame totals equal cycles" `Quick
      test_flame_totals_equal_cycles;
    Alcotest.test_case "detach flushes partial samples" `Quick
      test_detach_flushes_partial_samples;
    Alcotest.test_case "telemetry off is free" `Quick
      test_telemetry_off_is_free;
    Alcotest.test_case "session metrics deterministic" `Quick
      test_session_metrics_deterministic;
    Alcotest.test_case "window counters deterministic" `Quick
      test_window_counters_deterministic;
    Alcotest.test_case "concurrent sessions keep their options" `Quick
      test_sessions_keep_their_options;
    Alcotest.test_case "attribution deterministic across drivers" `Quick
      test_attribution_deterministic;
    Alcotest.test_case "fuzz cell codec round-trips" `Quick
      test_cell_codec_roundtrip;
  ]
