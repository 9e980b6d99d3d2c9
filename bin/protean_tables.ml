(* protean-tables: regenerate the paper's results tables and figures
   (the artifact's table-*.py / figure-*.py scripts, Section A-G).

     protean-tables table-v
     protean-tables table-iv --bench perlbench --bench milc
     protean-tables all -j 8
     protean-tables table-v --shards 4 -j 2
     protean-tables all --checkpoint all.ck

   Each target's experiment grid runs through Campaign.grid: `-j N`
   computes its cells on N domains; `--shards N` spreads them over N
   crash-isolated worker *processes* (each running `-j N` domains
   internally) under the Supervisor: a worker that segfaults, stalls or
   gets OOM-killed is retried and, if a single cell keeps crashing, that
   cell is bisected out and reported as a structured fault while the
   rest of the grid completes.  `--checkpoint FILE` keeps the completed
   cells, so an interrupted run resumes in any of these modes.  Either
   way the printed output is byte-identical to the serial run. *)

open Cmdliner
module E = Protean_harness.Experiment
module Campaign = Protean_harness.Campaign
module Tables = Protean_harness.Tables
module Figures = Protean_harness.Figures
module Studies = Protean_harness.Studies
module Report = Protean_harness.Report

let what_arg =
  let doc =
    "What to generate: table-i, table-ii, table-iv, table-v, figure-5, \
     figure-6, protcc-overhead, l1d-variants, ablation-access, \
     control-model, bugfix-cost, width-sweep, over-protection, area, \
     golden, golden-width, or all."
  in
  Arg.(value & pos 0 string "table-v" & info [] ~docv:"WHAT" ~doc)

let bench_arg =
  let doc = "Restrict to these benchmarks (repeatable)." in
  Arg.(value & opt_all string [] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let core_width_arg =
  Arg.(value & opt_all int [] & info [ "core-width" ] ~docv:"N"
         ~doc:"Restrict the width-sweep target to these issue widths \
               (repeatable; default 1 2 4 6 8). Other targets ignore it.")

let fuzz_programs_arg =
  Arg.(value & opt int 10 & info [ "fuzz-programs" ] ~docv:"N"
         ~doc:"Programs per Table II campaign.")

let inject_arg =
  Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"MODE"
         ~doc:"Self-test the shard supervisor by arming a worker-level \
               fault: worker-kill, worker-stall, worker-truncate, or \
               worker-poison:N (abort whenever computing cell N). \
               Requires --shards > 1; the supervised run must still \
               complete (recovering, or isolating the poisoned cell).")

let heartbeat_arg =
  Arg.(value & opt float 120.0 & info [ "shard-heartbeat" ] ~docv:"SECS"
         ~doc:"Kill a worker that sends no frame for this long.")

let wall_arg =
  Arg.(value & opt float 3600.0 & info [ "shard-wall" ] ~docv:"SECS"
         ~doc:"Kill a worker whose lease outlives this wall-clock budget.")

let campaign_term =
  Campaign.term
    ~check_certs_doc:
      "Audit the protection certificates of every ProtCC compile in the \
       grid with the independent checker before the binary runs; a refuted \
       certificate becomes a structured cell fault. Stays in the worker \
       argv, so shard workers audit the cells they compile."

let run what benches core_widths fuzz_programs inject heartbeat wall
    (c : Campaign.t) =
  let opts = Campaign.setup c in
  let jobs = c.jobs in
  let benches = match benches with [] -> None | bs -> Some bs in
  let widths = match core_widths with [] -> None | ws -> Some ws in
  (* The over-protection audit reads the ledger's summary counters from
     every cell.  Workers keep the positional target in their argv, so
     they collect too and the counters ride home in [F_result]. *)
  let opts =
    if what = "over-protection" then { opts with E.window = true } else opts
  in
  let session = E.create_session ~opts () in
  (* Targets memoized through [session] run as grids; the rest manage
     their own parallelism (or have none to exploit). *)
  let session_gen = function
    | "table-i" -> Some (fun () -> Tables.table_i ?benches session)
    | "table-iv" -> Some (fun () -> Tables.table_iv ?benches session)
    | "table-v" -> Some (fun () -> Tables.table_v ?benches session)
    | "figure-5" -> Some (fun () -> Figures.figure_5 ?benches session)
    | "figure-6" -> Some (fun () -> Figures.figure_6 ?benches session)
    | "protcc-overhead" -> Some (fun () -> Studies.protcc_overhead ?benches session)
    | "l1d-variants" -> Some (fun () -> Studies.l1d_variants ?benches session)
    | "ablation-access" -> Some (fun () -> Studies.ablation_access ?benches session)
    | "control-model" -> Some (fun () -> Studies.control_model ?benches session)
    | "bugfix-cost" -> Some (fun () -> Studies.bugfix_cost ?benches session)
    | "width-sweep" ->
        Some (fun () -> Tables.width_sweep ?benches ?widths session)
    (* Not in [session_targets]: `all` keeps the ledger detached so its
       grid cells stay byte-identical to the golden corpora. *)
    | "over-protection" ->
        Some (fun () -> Tables.over_protection ?benches session)
    | _ -> None
  in
  let session_targets =
    [
      "table-v"; "table-iv"; "table-i"; "figure-6"; "figure-5";
      "protcc-overhead"; "l1d-variants"; "ablation-access";
      "control-model"; "bugfix-cost";
    ]
  in
  (* One generator per grid: the target's own, or the combined session
     sweep for `all` (cells shared between tables run once, in one
     grid).  A worker serves the
     same scope: its discovery pass enumerates exactly the supervisor's
     cells because the argv (minus supervisor flags) matches. *)
  let grid g =
    Campaign.grid c ~heartbeat ~wall ?inject ~src:"tables" session g
  in
  let gen w =
    match session_gen w with
    | Some g -> grid g
    | None when Campaign.serving c ->
        invalid_arg ("--worker is only meaningful for grid targets: " ^ w)
    | None -> (
        match w with
        | "table-ii" ->
            Tables.table_ii ~jobs ~paranoid_sched:opts.E.paranoid_sched
              ~programs:fuzz_programs ()
        | "area" -> Studies.area_report ()
        | "golden" ->
            (* Regenerate the golden determinism corpus
               (test/golden_pipeline.expected). *)
            List.iter print_endline
              (Protean_harness.Golden.lines ~jobs ~opts ())
        | "golden-width" ->
            (* Regenerate the width-sweep golden corpus
               (test/golden_width.expected). *)
            List.iter print_endline
              (Protean_harness.Golden.width_lines ~jobs ~opts ())
        | s -> invalid_arg ("unknown table/figure: " ^ s))
  in
  (match what with
  | "all" ->
      grid (fun () ->
          List.iter (fun w -> Option.get (session_gen w) ()) session_targets);
      if not (Campaign.serving c) then List.iter gen [ "area"; "table-ii" ]
  | w -> gen w);
  if (not (Campaign.serving c)) && Report.wanted c.tele then
    Report.write_outputs c.tele session

let cmd =
  let doc = "regenerate the PROTEAN paper's tables and figures" in
  Cmd.v
    (Cmd.info "protean-tables" ~doc)
    Term.(
      const run $ what_arg $ bench_arg $ core_width_arg $ fuzz_programs_arg
      $ inject_arg $ heartbeat_arg $ wall_arg $ campaign_term)

let () = exit (Cmd.eval cmd)
