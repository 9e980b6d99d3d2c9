(* protean-fuzz: AMuLeT*-style security fuzzing of the simulated
   hardware configurations against security contracts (Section VII-B).

     protean-fuzz --defense prot-track --contract ct --programs 50
     protean-fuzz --inject-faults      # self-test: must catch planted bugs
     protean-fuzz -n 500 --checkpoint st.ck  # resumable long campaign

   Either mode is one campaign (Campaign.run over Campaign.fuzz): serial,
   on -j domains, under --shards or --listen, resumed from --checkpoint
   alike.  Table II is `protean-tables table-ii`.

   Exit status: 0 = clean; 1 = real contract violations found, or an
   injected fault went undetected (a detector gap) — so CI can gate on
   either direction of failure. *)

open Cmdliner
module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Config = Protean_ooo.Config
module Defense = Protean_defense.Defense
module Fault_inject = Protean_defense.Fault_inject
module Protcc = Protean_protcc.Protcc
module Campaign = Protean_harness.Campaign
module E = Protean_harness.Experiment
module Json = Protean_telemetry.Json
module Report = Protean_harness.Report
module Metrics = Protean_telemetry.Metrics
module Twindow = Protean_telemetry.Window
module Trace = Protean_telemetry.Trace
module Flame = Protean_telemetry.Flame

let defense_arg =
  Arg.(value & opt Campaign.defense "prot-track" & info [ "defense"; "d" ]
         ~docv:"ID" ~doc:"Defense to test.")

let contract_arg =
  Arg.(value & opt Campaign.contract "ct" & info [ "contract"; "c" ]
         ~docv:"CONTRACT" ~doc:"Contract: arch, cts, ct, unprot.")

let programs_arg =
  Arg.(value & opt int 20 & info [ "programs"; "n" ] ~docv:"N"
         ~doc:"Number of random programs.")

let inputs_arg =
  Arg.(value & opt int 5 & info [ "inputs"; "i" ] ~docv:"K"
         ~doc:"Input pairs per program.")

let adversary_of_name = function
  | "cache" -> Fuzz.Cache_tlb
  | "timing" -> Fuzz.Timing
  | s -> invalid_arg ("unknown adversary: " ^ s)

let adversary_arg =
  Arg.(value & opt (Campaign.name ~what:"adversary" adversary_of_name) "cache"
       & info [ "adversary"; "a" ] ~docv:"ADV"
         ~doc:"Adversary model: cache (cache+TLB tags) or timing.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let core_width_arg =
  Arg.(value & opt int 0 & info [ "core-width" ] ~docv:"N"
         ~doc:"Rescale the campaign's core to an $(docv)-wide superscalar \
               with the structural execution-port model attached \
               (Config.with_width); fuzzes the port/writeback scheduler \
               paths the default port-free config never reaches. 0 keeps \
               the campaign's native core.")

let squash_bug_arg =
  Arg.(value & flag & info [ "squash-bug" ]
         ~doc:"Re-enable the pending-squash corner case (Section VII-B4b).")

let gadget_arg =
  Arg.(value & flag & info [ "gadget" ]
         ~doc:"Generate gadget-only programs: every slot emits the v1 \
               bounds-check-bypass gadget, so an unsound defense (e.g. \
               --defense unsafe) violates deterministically. The \
               attribution smoke test's program source.")

let timeout_arg =
  Arg.(value & opt (some int) None & info [ "timeout-cycles" ] ~docv:"CYCLES"
         ~doc:"Per-simulation cycle budget; a run exceeding it is skipped \
               (with a report) instead of hanging the campaign.")

let inject_pass_fault_arg =
  let pass_fault =
    Campaign.name ~what:"pass fault" Fault_inject.cert_mode_of_string
  in
  Arg.(value & opt (some pass_fault) None
       & info [ "inject-pass-fault" ] ~docv:"MODE"
         ~doc:"Self-test the certificate checker: mutate each compile \
               result as a broken ProtCC pass would (cert-drop-prot, \
               cert-widen-safe or cert-stale-fact) and verify \
               --check-certs refutes it. Implies nothing by itself; \
               combine with --check-certs.")

let inject_arg =
  Arg.(value & flag & info [ "inject-faults" ]
         ~doc:"Self-test the fuzzer: inject deliberate faults into the \
               defenses and verify each one is caught as a violation. \
               Runs the canonical fault-mode/defense/contract matrix \
               (each fault paired with a defense where the faulted layer \
               is load-bearing), so --defense/--contract are ignored. \
               Undetected faults (detector gaps) fail the run.")

let campaign_term =
  Campaign.term
    ~check_certs_doc:
      "Audit the protection certificates of every instrumented program \
       against the SEQ contract executor (static claim audit plus lockstep \
       replay on the campaign's own input pairs), so the campaign doubles \
       as a translation-validation audit of ProtCC. A certificate violation \
       fails the run and is counted in its program's cell, in every mode."

let campaign_of ?(gadget = false) contract adversary programs inputs seed
    squash_bug timeout core_width check_certs paranoid_sched pass_fault =
  let adversary = adversary_of_name adversary in
  let base = Fuzz.campaign_for ~seed ~programs ~inputs contract in
  {
    base with
    Fuzz.adversary;
    squash_bug;
    timeout_cycles = timeout;
    check_certs;
    paranoid_sched;
    cert_fault = Option.map Fault_inject.cert_mode_of_string pass_fault;
    gen_klass = (if gadget then Gen.G_gadget else base.Fuzz.gen_klass);
    config =
      (if core_width > 0 then Config.with_width core_width base.Fuzz.config
       else base.Fuzz.config);
  }

(* --- telemetry -------------------------------------------------------- *)

(* Campaigns don't run through an [Experiment] session, so the exporters
   feed a binary-local registry and flame accumulator instead: campaign
   effort (contract tests) folded by defense, contract and verdict.
   Supervisor lifecycle counters and the trace recorder are shared with
   the other binaries through [Report]. *)
let fuzz_reg = Metrics.create ()
let fuzz_flame = Flame.create ()

let record_campaign ~defense_id ~contract ~adversary (r : Fuzz.report) =
  let labels =
    [
      ("adversary", adversary); ("contract", contract); ("defense", defense_id);
    ]
  in
  let c name help =
    Metrics.counter fuzz_reg ~help ~labels ("protean_fuzz_" ^ name)
  in
  let out = r.Fuzz.r_outcome in
  Metrics.inc ~n:out.Fuzz.tests (c "tests_total" "contract tests executed");
  Metrics.inc ~n:out.Fuzz.skipped (c "tests_skipped_total" "tests skipped");
  Metrics.inc ~n:out.Fuzz.violations
    (c "violations_total" "contract violations observed");
  Metrics.inc ~n:out.Fuzz.false_positives
    (c "false_positives_total" "tolerated false positives");
  Metrics.inc ~n:r.Fuzz.r_completed
    (c "programs_completed_total" "programs fully tested");
  Metrics.inc
    ~n:(List.length r.Fuzz.r_skipped)
    (c "programs_skipped_total" "programs skipped after retry");
  (match r.Fuzz.r_attribution with
  | Some a ->
      Metrics.inc
        (Metrics.counter fuzz_reg
           ~help:"contract violations attributed by the speculation ledger"
           ~labels:[ ("defense", defense_id); ("family", a.Twindow.at_family) ]
           "protean_leak_attributed_total")
  | None -> ());
  if out.Fuzz.certs_checked > 0 || out.Fuzz.cert_violations > 0 then begin
    let cc name help =
      Metrics.counter fuzz_reg ~help ~labels ("protean_cert_" ^ name)
    in
    Metrics.inc ~n:out.Fuzz.certs_checked
      (cc "checked_total" "protection certificates audited");
    Metrics.inc ~n:out.Fuzz.cert_claims
      (cc "claims_total" "individual certificate claims audited");
    Metrics.inc ~n:out.Fuzz.cert_violations
      (cc "violations_total" "certificate claims refuted by the checker")
  end;
  let stack verdict n =
    Flame.add fuzz_flame ~frames:[ defense_id; contract ^ "-seq"; verdict ] n
  in
  stack "violation" out.Fuzz.violations;
  stack "false-positive" out.Fuzz.false_positives;
  stack "clean"
    (out.Fuzz.tests - out.Fuzz.violations - out.Fuzz.false_positives);
  stack "skipped" out.Fuzz.skipped

(* The campaign registry merged with [Report]'s runtime (supervisor)
   registry, so sharded campaigns expose their process lifecycle too. *)
let snapshot () =
  Metrics.merge (Metrics.snapshot fuzz_reg) (Metrics.snapshot Report.runtime)

(* Record and print the self-test matrix from each pairing's merged
   cells: a row's counters are its programs' summed outcomes, and a row
   without a violation is a detector gap.  [true] when any row missed. *)
let report_self_test pairings rows =
  let gaps =
    List.map2
      (fun (m, defense_id, contract) cells ->
        let out = Fuzz.total cells in
        let labels =
          [
            ("contract", contract); ("defense", defense_id);
            ("mode", Fault_inject.mode_name m);
          ]
        in
        let c name help =
          Metrics.counter fuzz_reg ~help ~labels
            ("protean_fuzz_selftest_" ^ name)
        in
        let detected = out.Fuzz.violations > 0 in
        Metrics.inc ~n:out.Fuzz.tests (c "tests_total" "self-test executions");
        Metrics.inc ~n:out.Fuzz.violations
          (c "violations_total" "violations under the injected fault");
        if detected then
          Metrics.inc (c "detected_total" "injected faults caught");
        (m, defense_id, contract, out, detected))
      pairings rows
  in
  Printf.printf "fuzzer self-test (%d injected fault modes):\n"
    (List.length gaps);
  List.iter
    (fun (m, defense_id, contract, out, detected) ->
      Printf.printf "  %-20s on %-10s vs %-6s %3d tests, %3d violations -> %s\n"
        (Fault_inject.mode_name m) defense_id
        (String.uppercase_ascii contract ^ "-SEQ")
        out.Fuzz.tests out.Fuzz.violations
        (if detected then "caught" else "NOT CAUGHT (detector gap)"))
    gaps;
  let missed = List.filter (fun (_, _, _, _, detected) -> not detected) gaps in
  if missed <> [] then begin
    Printf.printf "%d/%d injected faults went undetected\n" (List.length missed)
      (List.length gaps);
    true
  end
  else begin
    Printf.printf "all injected faults detected\n";
    false
  end

(* Record and print a campaign report; [true] when it failed (contract
   or certificate violations). *)
let report_campaign (tele : Report.config) campaign d contract
    (r : Fuzz.report) =
  record_campaign ~defense_id:d.Defense.id ~contract
    ~adversary:(Fuzz.adversary_name campaign.Fuzz.adversary)
    r;
  let out = r.Fuzz.r_outcome in
  Printf.printf
    "%s vs %s-SEQ (%s adversary): %d tests, %d skipped, %d violations, %d \
     false positives (%d/%d programs completed)\n"
    d.Defense.id (String.uppercase_ascii contract)
    (Fuzz.adversary_name campaign.Fuzz.adversary)
    out.Fuzz.tests out.Fuzz.skipped out.Fuzz.violations
    out.Fuzz.false_positives r.Fuzz.r_completed campaign.Fuzz.programs;
  List.iter (fun s -> print_endline (Fuzz.skip_line s)) r.Fuzz.r_skipped;
  (match out.Fuzz.example with
  | Some (pseed, k) ->
      Printf.printf "first violation: program seed %d, input pair %d\n" pseed k
  | None -> ());
  (match r.Fuzz.r_counterexample with
  | Some sh ->
      Printf.printf
        "counterexample shrunk from %d to %d instructions (%d replays%s)\n"
        sh.Fuzz.sh_original_insns sh.Fuzz.sh_insns sh.Fuzz.sh_attempts
        (if sh.Fuzz.sh_verified then "" else "; NOT verified")
  | None -> ());
  (match r.Fuzz.r_attribution with
  | Some a -> print_endline (Twindow.render_attribution a)
  | None -> ());
  (match tele.Report.attr_out with
  | Some path ->
      Report.write_file path
        (Json.to_string
           (Json.Obj
              [
                ("defense", Json.Str d.Defense.id);
                ("contract", Json.Str contract);
                ( "attribution",
                  match r.Fuzz.r_attribution with
                  | Some a -> Twindow.attribution_to_json a
                  | None -> Json.Null );
              ])
        ^ "\n")
  | None -> ());
  if campaign.Fuzz.check_certs then begin
    Printf.printf "certificates: %d checked, %d claims, %d violations\n"
      out.Fuzz.certs_checked out.Fuzz.cert_claims out.Fuzz.cert_violations;
    Option.iter
      (Printf.printf "first certificate violation: %s\n")
      out.Fuzz.cert_example
  end;
  out.Fuzz.violations > 0 || out.Fuzz.cert_violations > 0

let run defense contract programs inputs adversary seed core_width squash_bug
    gadget timeout inject pass_fault (c : Campaign.t) =
  let opts = Campaign.setup c in
  let paranoid_sched = opts.E.paranoid_sched in
  (* One campaign per invocation, served by workers that re-run this
     argv; [None] when this process served as a worker. *)
  let go rows =
    Campaign.run ~opts ~src:"fuzz"
      ~live:(fun () -> Metrics.to_prometheus (snapshot ()))
      ~job:(fun () -> Campaign.fuzz c rows)
      c
  in
  let failed =
    if inject then
      (* The canonical fault-mode pairings, one row each. *)
      let pairings = Fuzz.canonical_pairings in
      go
        (List.map
           (Fuzz.self_test_row ?timeout_cycles:timeout ~paranoid_sched ~seed
              ~programs ~inputs)
           pairings)
      |> Option.map (report_self_test pairings)
    else begin
      let d = Defense.find defense in
      let campaign =
        campaign_of ~gadget contract adversary programs inputs seed squash_bug
          timeout core_width c.check_certs paranoid_sched pass_fault
      in
      let name = Printf.sprintf "%s|%s" d.Defense.id contract in
      (* [Fuzz.finish] merges the one row's cells and replays its first
         violation. *)
      let go () =
        Option.map
          (fun rows -> Fuzz.finish campaign d (List.concat rows))
          (go [ (campaign, d) ])
      in
      (match opts.E.trace with
      | Some tr -> Trace.with_span tr ~cat:"campaign" name go
      | None -> go ())
      |> Option.map (report_campaign c.tele campaign d contract)
    end
  in
  match failed with
  | None -> () (* served as a worker: the supervisor reports *)
  | Some failed ->
      if Report.wanted c.tele then
        Report.write_exports ?trace:opts.E.trace c.tele ~snapshot
          ~flame:(fun () -> fuzz_flame);
      if failed then exit 1

let cmd =
  let doc = "fuzz simulated Spectre defenses against security contracts" in
  Cmd.v
    (Cmd.info "protean-fuzz" ~doc)
    Term.(
      const run $ defense_arg $ contract_arg $ programs_arg $ inputs_arg
      $ adversary_arg $ seed_arg $ core_width_arg $ squash_bug_arg
      $ gadget_arg $ timeout_arg $ inject_arg $ inject_pass_fault_arg
      $ campaign_term)

let () = exit (Cmd.eval cmd)
