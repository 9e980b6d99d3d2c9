(* protean-sim: run benchmarks under one defense configuration and
   print execution statistics.

     protean-sim --bench milc --defense prot-track --pass ct --core p
     protean-sim -b milc -b lbm -b mcf -d stt -j 3 --invariants warn

   Mirrors the artifact's per-benchmark entry point (Section A-G3).
   Each benchmark is one cell of an experiment grid ([Campaign.grid]),
   so several --bench flags simulate on `-j N` domains, on --shards
   worker processes or on a --listen pool; reports print in benchmark
   order either way. *)

open Cmdliner
module Suite = Protean_workloads.Suite
module Defense = Protean_defense.Defense
module Config = Protean_ooo.Config
module Policy = Protean_ooo.Policy
module Invariants = Protean_ooo.Invariants
module Stats = Protean_ooo.Stats
module Campaign = Protean_harness.Campaign
module E = Protean_harness.Experiment
module Report = Protean_harness.Report

let bench_arg =
  let doc = "Benchmark name (repeatable; see --list)." in
  Arg.(
    value
    & opt_all Campaign.bench [ "milc" ]
    & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let defense_arg =
  let doc =
    "Defense: unsafe, nda, stt, spt, spt-sb, prot-delay, prot-track, ..."
  in
  Arg.(
    value
    & opt Campaign.defense "unsafe"
    & info [ "defense"; "d" ] ~docv:"ID" ~doc)

let pass_arg =
  let doc = "ProtCC pass: none, arch, cts, ct, unr, multiclass." in
  Arg.(
    value
    & opt (Campaign.name ~what:"pass" E.pass_of_name) "none"
    & info [ "pass"; "p" ] ~docv:"PASS" ~doc)

let core_arg =
  let doc = "Core configuration: p, e or test." in
  Arg.(value & opt Campaign.core "p" & info [ "core" ] ~docv:"CORE" ~doc)

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

let model_of = function
  | "atcommit" -> Policy.Atcommit
  | "control" -> Policy.Control
  | s -> invalid_arg ("unknown speculation model: " ^ s)

let spec_model_arg =
  let doc = "Speculation model: atcommit or control." in
  Arg.(
    value
    & opt (Campaign.name ~what:"speculation model" model_of) "atcommit"
    & info [ "spec-model" ] ~docv:"MODEL" ~doc)

let invariants_arg =
  let doc =
    "Microarchitectural invariant checking: off, warn (report on stderr, \
     keep going) or fail (raise a simulation fault)."
  in
  Arg.(
    value
    & opt (Campaign.name ~what:"invariant mode" Invariants.mode_of_string) "off"
    & info [ "invariants" ] ~docv:"MODE" ~doc)

let invariant_every_arg =
  let doc = "Check invariants every N cycles (with --invariants)." in
  Arg.(value & opt int 1 & info [ "invariant-every" ] ~docv:"N" ~doc)

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

let heartbeat_arg =
  Arg.(value & opt float 120.0 & info [ "shard-heartbeat" ] ~docv:"SECS"
         ~doc:"Kill a worker that sends no frame for this long.")

let wall_arg =
  Arg.(value & opt float 3600.0 & info [ "shard-wall" ] ~docv:"SECS"
         ~doc:"Kill a worker whose lease outlives this wall-clock budget.")

(* One benchmark's report, from its experiment cell, on
   [Format.std_formatter] (which the discovery pass silences). *)
let report bench (b : Suite.benchmark) (d : Defense.t) (config : Config.t)
    (r : E.run_result) =
  match (b.Suite.kind, r.E.stats) with
  | Suite.Single _, [ st ] ->
      Format.printf "%s under %s on %s:@.  %a@.  measured cycles: %d@." bench
        d.Defense.id config.Config.name Stats.pp st (Stats.measured_cycles st)
  | _, per_core ->
      Format.printf "%s under %s on %d cores: %d cycles@." bench d.Defense.id
        (List.length per_core) (int_of_float r.E.cycles);
      List.iteri
        (fun i st -> Format.printf "  core %d: %a@." i Stats.pp st)
        per_core

let run list benches defense pass core core_width spec_model invariants
    invariant_every heartbeat wall (c : Campaign.t) =
  let opts = Campaign.setup c in
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
    let session = E.create_session ~opts:{ opts with E.invariants } () in
    let spec bench =
      E.spec ~config ~spec_model ~multiclass (Suite.find bench) dcfg
    in
    (* The generator: one cell per benchmark, reports in benchmark
       order.  A nan cell is a fault the cell executor already reported;
       discovery returns nan placeholders, so each pass starts clean. *)
    let faulted = ref false in
    let gen () =
      faulted := false;
      List.iter
        (fun bench ->
          let r = E.run session (spec bench) in
          if Float.is_nan r.E.cycles then faulted := true
          else report bench (Suite.find bench) d config r)
        benches
    in
    ignore
      (Campaign.run ~opts:session.E.opts ~heartbeat ~wall ~src:"sim"
         ~live:(Report.live_metrics session)
         ~job:(fun () -> Campaign.grid c session gen)
         c);
    if not (Campaign.serving c) then begin
      (* Telemetry keeps protean-sim's own cell keys (bench|defense|core)
         for its metric labels and window audit. *)
      if Report.wanted c.tele then begin
        let tele = E.create_session ~opts () in
        List.iter
          (fun bench ->
            let r = E.run session (spec bench) in
            if not (Float.is_nan r.E.cycles) then
              Hashtbl.replace tele.E.cache
                (String.concat "|" [ bench; d.Defense.id; config.Config.name ])
                r)
          benches;
        Report.write_outputs c.tele tele
      end;
      if !faulted then exit 3
    end
  end

let cmd =
  let doc = "simulate a PROTEAN benchmark under a Spectre defense" in
  Cmd.v
    (Cmd.info "protean-sim" ~doc)
    Term.(
      const run $ list_arg $ bench_arg $ defense_arg $ pass_arg $ core_arg
      $ core_width_arg $ spec_model_arg $ invariants_arg $ invariant_every_arg
      $ heartbeat_arg $ wall_arg $ campaign_term)

let () = exit (Cmd.eval cmd)
