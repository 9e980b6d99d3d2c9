(* protean-sim: run benchmarks under one defense configuration and
   print execution statistics.

     protean-sim --bench milc --defense prot-track --pass ct --core p
     protean-sim -b milc -b lbm -b mcf -d stt -j 3 --invariants warn

   Mirrors the artifact's per-benchmark entry point (Section A-G3).
   Multiple --bench flags simulate on `-j N` domains; reports print in
   benchmark order either way. *)

open Cmdliner
module Suite = Protean_workloads.Suite
module Defense = Protean_defense.Defense
module Protcc = Protean_protcc.Protcc
module Certify = Protean_protcc.Certify
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Multicore = Protean_ooo.Multicore
module Policy = Protean_ooo.Policy
module Invariants = Protean_ooo.Invariants
module Stats = Protean_ooo.Stats
module Parallel = Protean_harness.Parallel
module Supervisor = Protean_harness.Supervisor
module Campaign = Protean_harness.Campaign
module Shard = Protean_harness.Shard
module Json = Protean_harness.Shard.Json
module E = Protean_harness.Experiment
module Report = Protean_harness.Report
module Profile = Protean_ooo.Profile
module Spec_window = Protean_ooo.Spec_window
module Twindow = Protean_telemetry.Window
module Flame = Protean_telemetry.Flame
module Trace = Protean_telemetry.Trace

let bench_arg =
  let doc = "Benchmark name (repeatable; see --list)." in
  Arg.(value & opt_all string [ "milc" ] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let defense_arg =
  let doc =
    "Defense: unsafe, nda, stt, spt, spt-sb, prot-delay, prot-track, ..."
  in
  Arg.(value & opt string "unsafe" & info [ "defense"; "d" ] ~docv:"ID" ~doc)

let pass_arg =
  let doc = "ProtCC pass: none, arch, cts, ct, unr, multiclass." in
  Arg.(value & opt string "none" & info [ "pass"; "p" ] ~docv:"PASS" ~doc)

let core_arg =
  let doc = "Core configuration: p, e or test." in
  Arg.(value & opt string "p" & info [ "core" ] ~docv:"CORE" ~doc)

let core_width_arg =
  let doc =
    "Rescale the chosen core to an $(docv)-wide superscalar: \
     fetch/rename/issue/commit widths become $(docv), the ROB/LSQ window \
     scales proportionally, and the structural execution-port model \
     (per-port capability masks, blocking mul/div, a bounded writeback \
     bus) is attached. 0 keeps the core's native width with the \
     port-unconstrained issue model."
  in
  Arg.(value & opt int 0 & info [ "core-width" ] ~docv:"N" ~doc)

let spec_model_arg =
  let doc = "Speculation model: atcommit or control." in
  Arg.(value & opt string "atcommit" & info [ "spec-model" ] ~docv:"MODEL" ~doc)

let invariants_arg =
  let doc =
    "Microarchitectural invariant checking: off, warn (report on stderr, \
     keep going) or fail (raise a simulation fault)."
  in
  Arg.(value & opt string "off" & info [ "invariants" ] ~docv:"MODE" ~doc)

let invariant_every_arg =
  let doc = "Check invariants every N cycles (with --invariants)." in
  Arg.(value & opt int 1 & info [ "invariant-every" ] ~docv:"N" ~doc)

let paranoid_sched_arg =
  let doc =
    "Cross-check the O(active) scheduler indexes (unissued/branch lists, \
     in-flight and LSQ queues, wakeup chains, dormancy) against a \
     brute-force ROB scan every cycle, raising a simulation fault on any \
     mismatch. Slow; a debugging aid for scheduler changes. Also enabled \
     by PROTEAN_PARANOID_SCHED=1."
  in
  Arg.(value & flag & info [ "paranoid-sched" ] ~doc)

let campaign_term =
  Campaign.term
    ~check_certs_doc:
      "Audit each compiled benchmark's protection certificates with the \
       independent checker (static claim audit plus SEQ lockstep replay) \
       before simulating it; a refuted certificate is reported as a \
       structured fault for that benchmark while the rest complete."

let list_arg =
  let doc = "List available benchmarks and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let inject_arg =
  Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"MODE"
         ~doc:"Self-test the shard supervisor: worker-kill, worker-stall, \
               worker-truncate, or worker-poison:N. Requires --shards > 1.")

let heartbeat_arg =
  Arg.(value & opt float 120.0 & info [ "shard-heartbeat" ] ~docv:"SECS"
         ~doc:"Kill a worker that sends no frame for this long.")

let wall_arg =
  Arg.(value & opt float 3600.0 & info [ "shard-wall" ] ~docv:"SECS"
         ~doc:"Kill a worker whose lease outlives this wall-clock budget.")

let config_of = function
  | "p" -> Config.p_core
  | "e" -> Config.e_core
  | "test" -> Config.test_core
  | s -> invalid_arg ("unknown core: " ^ s)

let model_of = function
  | "atcommit" -> Policy.Atcommit
  | "control" -> Policy.Control
  | s -> invalid_arg ("unknown speculation model: " ^ s)

let instrument pass program =
  (* With --check-certs every compile result passes the independent
     checker before it is simulated; a refuted certificate raises the
     structured [Certify.Cert_violation] handled by the fault paths. *)
  let audited (r : Protcc.result) =
    if !Certify.enabled then ignore (Certify.audit_exn ~original:program r);
    r.Protcc.program
  in
  match pass with
  | "none" -> program
  | "multiclass" -> audited (Protcc.instrument program)
  | p ->
      let pass =
        match p with
        | "arch" -> Protcc.P_arch
        | "cts" -> Protcc.P_cts
        | "ct" -> Protcc.P_ct
        | "unr" -> Protcc.P_unr
        | s -> invalid_arg ("unknown pass: " ^ s)
      in
      audited (Protcc.instrument ~pass_override:pass program)

(* Render one benchmark's report into a string, so parallel runs can
   print completed reports in benchmark order.  Also returns the run's
   telemetry as an [Experiment.run_result] (stats always; policy
   counters and flame stacks only when collection is enabled) so the
   exporters can fold it into a session. *)
let simulate (b : Suite.benchmark) (d : Defense.t) config spec_model pass
    invariants invariant_every bench =
  let flame_acc = if !E.collect_flame then Some (Flame.create ()) else None in
  let attached = ref [] in
  let attach ~root program t =
    match flame_acc with
    | None -> ()
    | Some acc ->
        let p = Profile.create () in
        let sink snap = E.fold_flame ~root program snap acc in
        Profile.attach ~sink p t;
        attached := t :: !attached
  in
  let ledgers : (Pipeline.t * Spec_window.t) list ref = ref [] in
  let attach_ledger (t : Pipeline.t) =
    if !E.collect_window then ledgers := (t, Spec_window.attach t) :: !ledgers
  in
  let finish_tele policies =
    List.iter Profile.detach !attached;
    let pm =
      if !E.collect_policy_metrics then E.merge_policy_metrics policies
      else []
    in
    let fl = match flame_acc with None -> [] | Some acc -> Flame.to_list acc in
    let wn =
      List.fold_left
        (fun acc (t, led) ->
          Spec_window.detach t led;
          (match (!E.window_hook, Spec_window.leaky_windows led) with
          | Some f, (_ :: _ as leaky) -> f (d.Defense.id ^ "/" ^ bench) leaky
          | _ -> ());
          Twindow.merge_counters acc (Spec_window.counters led))
        [] !ledgers
    in
    (pm, fl, wn)
  in
  let result ~cycles ~stats ~pm ~fl ~wn =
    {
      E.cycles = float_of_int cycles;
      stats;
      code_size_ratio = nan;
      inserted_moves = 0;
      policy_metrics = pm;
      flame = fl;
      frontend = "";
      window = wn;
    }
  in
  match b.Suite.kind with
  | Suite.Single f ->
      let program = instrument pass (f ()) in
      let on_cycle =
        match invariants with
        | Invariants.Off -> None
        | mode -> Some (Invariants.checker ~every:invariant_every mode)
      in
      let policy = d.Defense.make () in
      let r =
        Pipeline.run ~spec_model ~fuel:50_000_000 ?on_cycle
          ~on_start:(fun t ->
            attach ~root:[ d.Defense.id; bench ] program t;
            attach_ledger t)
          config policy program ~overlays:[]
      in
      let pm, fl, wn = finish_tele [ policy ] in
      let report =
        Format.asprintf "%s under %s on %s:@.  %a@.  measured cycles: %d@."
          bench d.Defense.id config.Config.name Stats.pp r.Pipeline.stats
          (Stats.measured_cycles r.Pipeline.stats)
      in
      ( report,
        result
          ~cycles:(Stats.measured_cycles r.Pipeline.stats)
          ~stats:[ r.Pipeline.stats ] ~pm ~fl ~wn )
  | Suite.Multi f ->
      let programs = Array.map (instrument pass) (f ()) in
      let policies = ref [] in
      let make_policy () =
        let p = d.Defense.make () in
        policies := p :: !policies;
        p
      in
      let on_core i t =
        attach
          ~root:[ d.Defense.id; bench; Printf.sprintf "core%d" i ]
          programs.(i) t;
        attach_ledger t
      in
      let r =
        Multicore.run ~spec_model ~fuel:50_000_000 ~invariants
          ~invariant_every ~on_core config ~make_policy programs
      in
      let pm, fl, wn = finish_tele !policies in
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Format.fprintf ppf "%s under %s on %d cores: %d cycles@." bench
        d.Defense.id (Array.length programs) r.Multicore.cycles;
      Array.iteri
        (fun i (c : Pipeline.result) ->
          Format.fprintf ppf "  core %d: %a@." i Stats.pp c.Pipeline.stats)
        r.Multicore.per_core;
      Format.pp_print_flush ppf ();
      ( Buffer.contents buf,
        result ~cycles:r.Multicore.cycles
          ~stats:
            (Array.to_list
               (Array.map (fun (c : Pipeline.result) -> c.Pipeline.stats)
                  r.Multicore.per_core))
          ~pm ~fl ~wn )

let run list benches defense pass core core_width spec_model invariants
    invariant_every paranoid_sched inject heartbeat wall (c : Campaign.t) =
  Campaign.setup c;
  (* Stays in the worker argv (not a supervisor flag): shard workers
     audit the certificates of the cells they compile. *)
  if c.check_certs then Report.enable_cert_audit ();
  if paranoid_sched then Pipeline.set_paranoid_sched true;
  if list then
    List.iter
      (fun (b : Suite.benchmark) ->
        Printf.printf "%-18s %-12s %s\n" b.Suite.name b.Suite.suite
          (Protean_isa.Program.string_of_klass b.Suite.klass))
      Suite.all
  else begin
    let d = Defense.find defense in
    let config = config_of core in
    (* --core-width stays in the worker argv (it is not a supervisor
       flag), so --shards workers rebuild the identical config. *)
    let config =
      if core_width > 0 then Config.with_width core_width config else config
    in
    let spec_model = model_of spec_model in
    let invariants = Invariants.mode_of_string invariants in
    let session = E.create_session () in
    let cell_key bench =
      Printf.sprintf "%s|%s|%s" bench d.Defense.id config.Config.name
    in
    let simulate bench =
      simulate (Suite.find bench) d config spec_model pass invariants
        invariant_every bench
    in
    (* A benchmark's report and telemetry, or the fault that ended it. *)
    let outcome sim =
      match sim () with
      | report, res -> Ok (report, res)
      | exception Pipeline.Sim_fault f -> Error (Pipeline.fault_to_string f)
      | exception (Certify.Cert_violation _ as e) ->
          Error (Printexc.to_string e)
    in
    (* One cell per benchmark; the cell key is the benchmark name, so the
       worker's enumeration is the supervisor's by construction. *)
    let sim_cell bench =
      match outcome (fun () -> simulate bench) with
      | Ok (report, res) ->
          Json.Obj
            [
              ("report", Json.Str report);
              ("result", Supervisor.Grid.result_to_json res);
            ]
      | Error reason -> Json.Obj [ ("fault", Json.Str reason) ]
    in
    let of_cell = function
      | Supervisor.O_ok j -> (
          match (Json.member "report" j, Json.member "fault" j) with
          | Json.Str report, _ ->
              Ok
                ( report,
                  Supervisor.Grid.result_of_json (Json.member "result" j) )
          | _, Json.Str reason -> Error reason
          | _ -> Error "malformed worker result frame")
      | Supervisor.O_fault { f_attempts; f_reason; _ } ->
          Error
            (Printf.sprintf "worker crashed on every attempt (%d): %s"
               f_attempts f_reason)
    in
    (* Reports print in benchmark order.  A fault reports the faulting
       configuration instead of dying with a raw backtrace, and exits
       non-zero so scripts notice. *)
    let render results =
      let faulted = ref false in
      List.iter
        (fun (bench, r) ->
          match r with
          | Ok (report, res) ->
              print_string report;
              if Report.wanted c.tele then
                Hashtbl.replace session.E.cache (cell_key bench) res
          | Error reason ->
              Printf.eprintf "[fault] bench=%s defense=%s core=%s: %s\n%!" bench
                d.Defense.id config.Config.name reason;
              faulted := true)
        results;
      if Report.wanted c.tele then Report.write_outputs c.tele session;
      if !faulted then exit 3
    in
    (* In process, each benchmark's wall-clock span goes to the trace. *)
    let traced bench () =
      match !Report.tracer with
      | None -> simulate bench
      | Some tr ->
          let t0 = Unix.gettimeofday () in
          let r = simulate bench in
          Trace.span tr ~cat:"cell" ~t0 ~t1:(Unix.gettimeofday ())
            (cell_key bench);
          r
    in
    let in_process () =
      let tasks =
        Array.of_list
          (List.map (fun bench () -> outcome (traced bench)) benches)
      in
      render
        (List.combine benches (Array.to_list (Parallel.map ~jobs:c.jobs tasks)))
    in
    let job () =
      {
        Campaign.cells =
          List.mapi (fun i b -> { Shard.c_id = i; c_key = b }) benches;
        compute = sim_cell;
        fallback = sim_cell;
        merge =
          (fun outcomes ->
            render
              (List.map
                 (fun (id, o) -> (List.nth benches id, of_cell o))
                 outcomes));
      }
    in
    ignore
      (Campaign.run ~heartbeat ~wall ?inject ~src:"sim"
         ~live:(Report.live_metrics session) ~job ~in_process c)
  end

let cmd =
  let doc = "simulate a PROTEAN benchmark under a Spectre defense" in
  Cmd.v
    (Cmd.info "protean-sim" ~doc)
    Term.(
      const run $ list_arg $ bench_arg $ defense_arg $ pass_arg $ core_arg
      $ core_width_arg $ spec_model_arg $ invariants_arg $ invariant_every_arg
      $ paranoid_sched_arg $ inject_arg $ heartbeat_arg $ wall_arg
      $ campaign_term)

let () = exit (Cmd.eval cmd)
