(* protean-fuzz: AMuLeT*-style security fuzzing of the simulated
   hardware configurations against security contracts (Section VII-B).

     protean-fuzz --defense prot-track --contract ct --programs 50
     protean-fuzz --inject-faults      # self-test: must catch planted bugs
     protean-fuzz -n 500 --checkpoint st.ck  # resumable long campaign
     protean-fuzz --table-ii           # the scaled-down Table II grid

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
module Tables = Protean_harness.Tables
module Parallel = Protean_harness.Parallel
module Supervisor = Protean_harness.Supervisor
module Campaign = Protean_harness.Campaign
module E = Protean_harness.Experiment
module Shard = Protean_harness.Shard
module Json = Protean_telemetry.Json
module Report = Protean_harness.Report
module Metrics = Protean_telemetry.Metrics
module Twindow = Protean_telemetry.Window
module Trace = Protean_telemetry.Trace
module Flame = Protean_telemetry.Flame

let defense_arg =
  Arg.(value & opt string "prot-track" & info [ "defense"; "d" ] ~docv:"ID"
         ~doc:"Defense to test.")

let contract_arg =
  Arg.(value & opt string "ct" & info [ "contract"; "c" ] ~docv:"CONTRACT"
         ~doc:"Contract: arch, cts, ct, unprot.")

let programs_arg =
  Arg.(value & opt int 20 & info [ "programs"; "n" ] ~docv:"N"
         ~doc:"Number of random programs.")

let inputs_arg =
  Arg.(value & opt int 5 & info [ "inputs"; "i" ] ~docv:"K"
         ~doc:"Input pairs per program.")

let adversary_arg =
  Arg.(value & opt string "cache" & info [ "adversary"; "a" ] ~docv:"ADV"
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

let table_ii_arg =
  Arg.(value & flag & info [ "table-ii" ]
         ~doc:"Run the scaled-down Table II campaign grid and exit.")

let timeout_arg =
  Arg.(value & opt (some int) None & info [ "timeout-cycles" ] ~docv:"CYCLES"
         ~doc:"Per-simulation cycle budget; a run exceeding it is skipped \
               (with a report) instead of hanging the campaign.")

let inject_worker_arg =
  Arg.(value & opt (some string) None
         & info [ "inject-worker-fault" ] ~docv:"MODE"
         ~doc:"Self-test the shard supervisor: worker-kill, worker-stall, \
               worker-truncate, or worker-poison:N. Requires --shards > 1 \
               (without --listen).")

let inject_pass_fault_arg =
  Arg.(value & opt (some string) None
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
       fails the run; under --shards it poisons only the offending \
       program's cell."

let campaign_of ?(gadget = false) contract adversary programs inputs seed
    squash_bug timeout core_width check_certs paranoid_sched pass_fault =
  let adversary =
    match adversary with
    | "cache" -> Fuzz.Cache_tlb
    | "timing" -> Fuzz.Timing
    | s -> invalid_arg ("unknown adversary: " ^ s)
  in
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

let record_self_test rows =
  List.iter
    (fun (defense_id, contract, (g : Fuzz.gap)) ->
      let labels =
        [
          ("contract", contract); ("defense", defense_id);
          ("mode", Fault_inject.mode_name g.Fuzz.g_mode);
        ]
      in
      let c name help =
        Metrics.counter fuzz_reg ~help ~labels ("protean_fuzz_selftest_" ^ name)
      in
      Metrics.inc ~n:g.Fuzz.g_tests (c "tests_total" "self-test executions");
      Metrics.inc ~n:g.Fuzz.g_violations
        (c "violations_total" "violations under the injected fault");
      if g.Fuzz.g_detected then
        Metrics.inc (c "detected_total" "injected faults caught"))
    rows

(* The campaign registry merged with [Report]'s runtime (supervisor)
   registry, so sharded campaigns expose their process lifecycle too. *)
let snapshot () =
  Metrics.merge (Metrics.snapshot fuzz_reg) (Metrics.snapshot Report.runtime)

let report_skips (r : Fuzz.report) =
  List.iter
    (fun (s : Fuzz.skip) ->
      Printf.printf "skipped program %d (seed %d) after retry: %s\n"
        s.Fuzz.sk_index s.Fuzz.sk_seed s.Fuzz.sk_reason)
    r.Fuzz.r_skipped

let run_self_test ~jobs ~paranoid_sched ~programs ~inputs ~seed ~timeout =
  (* The canonical fault-mode pairings are independent campaigns: fan
     them out and print the matrix in its fixed order. *)
  let rows =
    Array.to_list
      (Parallel.map ~jobs
         (Array.of_list
            (List.map
               (fun pairing () ->
                 Fuzz.self_test_pairing ~seed ~programs ~inputs
                   ?timeout_cycles:timeout ~paranoid_sched pairing)
               Fuzz.canonical_pairings)))
  in
  record_self_test rows;
  Printf.printf "fuzzer self-test (%d injected fault modes):\n"
    (List.length rows);
  List.iter
    (fun (defense_id, contract, (g : Fuzz.gap)) ->
      Printf.printf "  %-20s on %-10s vs %-6s %3d tests, %3d violations -> %s\n"
        (Fault_inject.mode_name g.Fuzz.g_mode)
        defense_id
        (String.uppercase_ascii contract ^ "-SEQ")
        g.Fuzz.g_tests g.Fuzz.g_violations
        (if g.Fuzz.g_detected then "caught" else "NOT CAUGHT (detector gap)"))
    rows;
  let missed = Fuzz.gaps (List.map (fun (_, _, g) -> g) rows) in
  if missed <> [] then begin
    Printf.printf "%d/%d injected faults went undetected\n" (List.length missed)
      (List.length rows);
    true
  end
  else begin
    Printf.printf "all injected faults detected\n";
    false
  end

(* --- the campaign ------------------------------------------------------- *)

(* The campaign: one cell per program (keyed by its index), merged by
   [Fuzz.finish] — in process on -j domains, supervised under --shards /
   --listen, and resumed from --checkpoint alike.  A program whose
   worker died on every attempt (a poisoned cell) becomes a skip, as a
   program that faults twice does.  Served under --worker / --connect,
   the result is [None]: nothing to report. *)
let run_campaign (c : Campaign.t) ~opts ?inject_worker campaign d =
  let of_outcome (id, o) =
    match o with
    | Supervisor.O_ok j -> Fuzz.cell_of_json id j
    | Supervisor.O_fault { f_attempts; f_reason; _ } ->
        {
          Fuzz.c_index = id;
          c_outcome = Fuzz.fresh_outcome ();
          c_skip =
            Some
              (Printf.sprintf "worker crashed on every attempt (%d): %s"
                 f_attempts f_reason);
        }
  in
  (* A worker escalates a refuted certificate to a cell fault, so the
     supervisor poisons only that program; in process the verdict stays
     in the cell's counters. *)
  let cert_poison = c.check_certs && Campaign.serving c in
  let job () =
    {
      Campaign.cells =
        List.init campaign.Fuzz.programs (fun i ->
            { Shard.c_id = i; c_key = string_of_int i });
      compute =
        (fun key ->
          Fuzz.cell_to_json campaign
            (Fuzz.test_cell ~cert_poison campaign d (int_of_string key)));
      merge =
        (fun outcomes -> Fuzz.finish campaign d (List.map of_outcome outcomes));
    }
  in
  Campaign.run ~opts ?inject:inject_worker ~src:"fuzz"
    ~live:(fun () -> Metrics.to_prometheus (snapshot ()))
    ~job c

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
  report_skips r;
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
  let cert_failed =
    if not campaign.Fuzz.check_certs then false
    else begin
      (* A refuted certificate surfaces either in the merged counters
         (serial/-j paths) or as a poisoned cell whose skip reason
         carries the rendered violation (--shards path). *)
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        n = 0 || go 0
      in
      let poisoned =
        List.filter
          (fun (s : Fuzz.skip) -> contains s.Fuzz.sk_reason "cert-violation")
          r.Fuzz.r_skipped
      in
      Printf.printf
        "certificates: %d checked, %d claims, %d violations%s\n"
        out.Fuzz.certs_checked out.Fuzz.cert_claims
        (out.Fuzz.cert_violations + List.length poisoned)
        (if poisoned = [] then ""
         else Printf.sprintf " (%d as poisoned cells)" (List.length poisoned));
      (match (out.Fuzz.cert_example, poisoned) with
      | Some ex, _ -> Printf.printf "first certificate violation: %s\n" ex
      | None, s :: _ ->
          Printf.printf "first certificate violation: %s\n" s.Fuzz.sk_reason
      | None, [] -> ());
      out.Fuzz.cert_violations > 0 || poisoned <> []
    end
  in
  out.Fuzz.violations > 0 || cert_failed

let run table_ii defense contract programs inputs adversary seed core_width
    squash_bug gadget timeout inject inject_worker pass_fault
    (c : Campaign.t) =
  let opts = Campaign.setup c in
  let paranoid_sched = opts.E.paranoid_sched in
  let failed =
    if table_ii then begin
      Tables.table_ii ~jobs:c.jobs ~paranoid_sched ~programs ~inputs ();
      Some false
    end
    else if inject then
      Some
        (run_self_test ~jobs:c.jobs ~paranoid_sched ~programs ~inputs ~seed
           ~timeout)
    else begin
      let d = Defense.find defense in
      let campaign =
        campaign_of ~gadget contract adversary programs inputs seed squash_bug
          timeout core_width c.check_certs paranoid_sched pass_fault
      in
      let name = Printf.sprintf "%s|%s" d.Defense.id contract in
      let go () = run_campaign c ~opts ?inject_worker campaign d in
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
      const run $ table_ii_arg $ defense_arg $ contract_arg $ programs_arg
      $ inputs_arg $ adversary_arg $ seed_arg $ core_width_arg
      $ squash_bug_arg $ gadget_arg $ timeout_arg $ inject_arg
      $ inject_worker_arg $ inject_pass_fault_arg $ campaign_term)

let () = exit (Cmd.eval cmd)
