(* protean-sim: run benchmarks under one defense configuration and
   print execution statistics.

     protean-sim --bench milc --defense prot-track --pass ct --core p
     protean-sim -b milc -b lbm -b mcf -d stt -j 3 --invariants warn

   Mirrors the artifact's per-benchmark entry point (Section A-G3).
   Each benchmark is one experiment cell, run by [Experiment.execute]
   like every grid cell.  Multiple --bench flags simulate on `-j N`
   domains; reports print in benchmark order either way. *)

open Cmdliner
module Suite = Protean_workloads.Suite
module Defense = Protean_defense.Defense
module Certify = Protean_protcc.Certify
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
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

let model_of = function
  | "atcommit" -> Policy.Atcommit
  | "control" -> Policy.Control
  | s -> invalid_arg ("unknown speculation model: " ^ s)

(* One benchmark's report, rendered from its experiment cell into a
   string so parallel runs can print completed reports in benchmark
   order. *)
let report bench (b : Suite.benchmark) (d : Defense.t) (config : Config.t)
    (r : E.run_result) =
  match (b.Suite.kind, r.E.stats) with
  | Suite.Single _, [ st ] ->
      Format.asprintf "%s under %s on %s:@.  %a@.  measured cycles: %d@."
        bench d.Defense.id config.Config.name Stats.pp st
        (Stats.measured_cycles st)
  | _, per_core ->
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Format.fprintf ppf "%s under %s on %d cores: %d cycles@." bench
        d.Defense.id (List.length per_core) (int_of_float r.E.cycles);
      List.iteri
        (fun i st -> Format.fprintf ppf "  core %d: %a@." i Stats.pp st)
        per_core;
      Format.pp_print_flush ppf ();
      Buffer.contents buf

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
    let config = E.core_of_name core in
    (* --core-width stays in the worker argv (it is not a supervisor
       flag), so --shards workers rebuild the identical config. *)
    let config =
      if core_width > 0 then Config.with_width core_width config else config
    in
    let pass, multiclass = E.pass_of_name pass in
    let dcfg = { E.label = d.Defense.id; defense = d; pass } in
    let spec_model = model_of spec_model in
    let invariants =
      match Invariants.mode_of_string invariants with
      | Invariants.Off -> None
      | mode -> Some (mode, invariant_every)
    in
    let session = E.create_session () in
    let cell_key bench =
      Printf.sprintf "%s|%s|%s" bench d.Defense.id config.Config.name
    in
    let simulate bench =
      let b = Suite.find bench in
      let r =
        E.execute ?invariants (E.spec ~config ~spec_model ~multiclass b dcfg)
      in
      (report bench b d config r, r)
    in
    (* A benchmark's report and telemetry, or the fault that ended it
       (a simulation fault, a run out of fuel, a refuted certificate). *)
    let outcome sim =
      match sim () with
      | report, res -> Ok (report, res)
      | exception Pipeline.Sim_fault f -> Error (Pipeline.fault_to_string f)
      | exception Failure reason -> Error reason
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
