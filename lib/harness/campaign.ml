(* The campaign driver shared by protean-sim, protean-tables and
   protean-fuzz: the flags all three declare, the process set-up they
   imply, and the dispatch of a run.  A process serves cells to a
   supervisor ([--worker] on stdin/stdout, [--connect HOST:PORT] over
   TCP), or runs the campaign one of three ways: supervising spawned
   workers ([--shards N]) or dial-in ones ([--listen]) through
   {!Supervisor.run}, or in process on [-j] domains — the supervisor's
   own fallback.  Every way appends each completed cell to the
   [--checkpoint] file, a rerun of the same campaign ({!identity})
   computes only the cells it lacks, and the binary's [merge] renders
   them all in cell order, so every mode prints what a serial run
   prints.  Every target of every binary is exactly one campaign: a
   worker serves the first campaign its argv reaches, and a checkpoint
   holds one campaign's cells.  A binary supplies only its cells, how
   one is computed and how merged outcomes render ({!grid}, {!fuzz},
   {!both}); the run-wide modes travel as one [Experiment.options]
   value. *)

open Cmdliner
module Json = Shard.Json
module Fault_inject = Protean_defense.Fault_inject
module Defense = Protean_defense.Defense
module Suite = Protean_workloads.Suite
module Fuzz = Protean_amulet.Fuzz
module Trace = Protean_telemetry.Trace
module Tlog = Protean_telemetry.Log

type t = {
  jobs : int; (* resolved: [-j 0] means every core *)
  shards : int;
  worker : bool;
  tele : Report.config;
  log_json : bool;
  listen : string option;
  connect : string option;
  token : string;
  metrics_listen : string option;
  check_certs : bool; (* each binary gives it its own meaning *)
  paranoid_sched : bool;
  checkpoint : string option;
  inject : string option; (* worker fault armed in spawned workers *)
}

(* A name-valued flag, checked when the command line is parsed.  [find]
   is the lookup the run makes, raising [Invalid_argument] on a name it
   does not know, so a typo is a usage error naming its flag (exit 124)
   rather than an uncaught exception once the run has started. *)
let name ~what find =
  let parse s =
    match find s with
    | _ -> Ok s
    | exception Invalid_argument _ ->
        Error (`Msg (Printf.sprintf "unknown %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_string)

let bench = name ~what:"benchmark" Suite.find
let defense = name ~what:"defense" Defense.find
let core = name ~what:"core" Experiment.core_of_name

let contract =
  name ~what:"contract" (fun c -> Fuzz.campaign_for ~programs:0 ~inputs:0 c)

let worker_fault =
  name ~what:"worker fault" Fault_inject.worker_mode_of_string

let term ~check_certs_doc =
  let path name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)
  in
  (* A malformed HOST:PORT is a usage error naming its flag; resolving
     and binding wait for the run. *)
  let addr name doc =
    let parse s =
      match Shard.split_addr s with
      | Ok _ -> Ok s
      | Error e -> Error (`Msg (Printf.sprintf "%s in %S" e s))
    in
    let hostport = Arg.conv (parse, Format.pp_print_string) in
    Arg.(
      value & opt (some hostport) None & info [ name ] ~docv:"HOST:PORT" ~doc)
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let make jobs shards worker metrics_out trace_out flamegraph_out attr_out
      log_json listen connect token metrics_listen check_certs paranoid_sched
      checkpoint inject =
    {
      jobs = (if jobs = 0 then Parallel.default_jobs () else max 1 jobs);
      shards = max 1 shards;
      worker;
      tele = { Report.metrics_out; trace_out; flamegraph_out; attr_out };
      log_json;
      listen;
      connect;
      token;
      metrics_listen;
      check_certs;
      paranoid_sched;
      checkpoint;
      inject;
    }
  in
  Term.(
    const make
    $ Arg.(
        value & opt int 1
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "Simulation domains; 0 = all cores. Composes with --shards \
               (each worker runs this many). Output is identical to -j 1.")
    $ Arg.(
        value & opt int 1
        & info [ "shards" ] ~docv:"N"
            ~doc:
              "Crash-isolated worker processes (each running -j domains). \
               Output is byte-identical to the serial run; a cell that \
               crashes its worker on every attempt is isolated by bisection \
               and reported as a structured fault while the rest completes.")
    $ flag "worker"
        "Internal: serve cells over the supervisor frame protocol on \
         stdin/stdout. Spawned by --shards; not for interactive use."
    $ path "metrics-out"
        "Write run metrics to $(docv): Prometheus text exposition, or JSON \
         when the path ends in .json. Simulation-derived families are \
         byte-identical across -j and --shards."
    $ path "trace-out"
        "Write a Chrome trace-event JSON timeline (cell spans, supervisor \
         lifecycle instants) to $(docv); load it in Perfetto or \
         chrome://tracing."
    $ path "flamegraph-out"
        "Write a collapsed-stack flamegraph to $(docv): simulated cycles by \
         defense, benchmark and function, or for a fuzz campaign its \
         contract tests by defense, contract and verdict. Render with \
         flamegraph.pl or speedscope."
    $ path "attr-out"
        "Write the speculation-window report as JSON to $(docv) and print \
         it rendered on stdout: per-cell window counters and \
         over-protection ratios for simulations and grids, the \
         leakage-attribution record (leaking transmitter pc, source access \
         pc, trigger window, gadget family) for a fuzz campaign. \
         Byte-identical across -j and --shards."
    $ flag "log-json" "Emit diagnostic log lines as structured JSON on stderr."
    $ addr "listen"
        "Supervise as a TCP worker pool: bind $(docv) (port 0 picks one), \
         lease work to workers that dial in with --connect, and re-dispatch \
         the lease of any worker that disconnects or times out. --shards \
         then bounds in-flight leases. Output stays byte-identical to the \
         serial run."
    $ addr "connect"
        "Serve cells as a remote worker: dial a --listen'ing supervisor, \
         authenticate with --campaign-token, and reconnect with backoff if \
         the connection drops."
    $ Arg.(
        value & opt string "protean"
        & info [ "campaign-token" ] ~docv:"TOKEN"
            ~doc:
              "Shared secret for the worker-pool handshake; a dial-in worker \
               presenting a different token is rejected.")
    $ addr "metrics-listen"
        "Serve live Prometheus metrics over HTTP at $(docv)/metrics while a \
         --shards or --listen run supervises (port 0 picks one; the bound \
         port is logged)."
    $ flag "check-certs" check_certs_doc
    $ flag "paranoid-sched"
        "Cross-check the O(active) scheduler indexes (the ready-bit vector, \
         the branch list, in-flight and LSQ queues, wakeup chains, \
         dormancy) against a brute-force ROB scan every cycle, on the \
         spinning machine (skip-ahead off), raising a simulation fault on \
         any mismatch. Slow; a debugging aid for scheduler changes. Output \
         is unchanged."
    $ Arg.(
        value
        & opt (some string) None
        & info [ "checkpoint" ] ~docv:"FILE"
            ~doc:
              "Append each completed cell to $(docv); rerunning the same \
               campaign (same arguments, apart from -j and the supervisor \
               flags) in any mode computes only the cells it lacks and \
               prints what the uninterrupted run prints. A file of another \
               campaign is ignored and overwritten.")
    $ Arg.(
        value
        & opt (some worker_fault) None
        & info [ "inject-worker-fault" ] ~docv:"MODE"
            ~doc:
              "Self-test the shard supervisor by arming a worker-level \
               fault: worker-kill, worker-stall, worker-truncate, or \
               worker-poison:N (abort whenever computing cell N). Requires \
               --shards > 1 without --listen; the supervised run must still \
               complete (recovering, or isolating the poisoned cell)."))

(* Is this process a worker ([--worker] or [--connect])?  Workers keep
   the exporter flags so they collect telemetry for their cells (it
   rides home in the result frames), but only the parent writes files. *)
let serving c = c.worker || c.connect <> None

let supervised c = c.shards > 1 || c.listen <> None

(* Process set-up every binary starts with, returning the run's options.
   The flags it reads stay in a spawned worker's argv, so the worker
   builds the same value.  Collection follows the exporter flags —
   workers collect too, and the telemetry rides home in their result
   frames — but only a process that is not serving records a trace. *)
let setup c =
  Protean_ooo.Gc_tune.tune ();
  if c.log_json then Protean_telemetry.Log.set_json true;
  let tele = c.tele in
  let trace =
    match tele.Report.trace_out with
    | Some _ when not (serving c) ->
        let tr = Trace.create () in
        Trace.name_process tr ~pid:0 "protean";
        Trace.name_process tr ~pid:1 "simulated-windows";
        Some tr
    | _ -> None
  in
  {
    Experiment.check_certs = c.check_certs;
    policy_metrics = tele.Report.metrics_out <> None;
    flame = tele.Report.flamegraph_out <> None;
    window = tele.Report.metrics_out <> None || tele.Report.attr_out <> None;
    paranoid_sched = c.paranoid_sched;
    invariants = None;
    trace;
    on_cert = (if c.check_certs then Some Report.count_cert else None);
  }

(* Flags that configure only the supervising process.  They must not
   reach a spawned worker's argv: the worker re-runs the same discovery
   pass, and any argv drift would change the cell enumeration.  A worker
   never writes the checkpoint, so [--checkpoint] is one of them, and a
   worker fault rides in a spawned worker's environment.  Each takes a
   value, which is dropped with it. *)
let supervisor_flags =
  [
    "--shards"; "--inject-worker-fault"; "--shard-heartbeat"; "--shard-wall";
    "--checkpoint"; "--listen"; "--metrics-listen"; "--campaign-token";
  ]

(* The campaign this process runs: the binary's basename and the
   arguments a spawned worker receives, minus those that only place cells
   ([--worker], [--connect ADDR], [-j]).  Spawned workers rely on "same
   arguments, same cells under the same options"; the identity makes that
   the one definition of "same campaign" for the checkpoint header and
   the dial-in handshake, covering every option a cell reads without a
   list to keep up to date.  [argv] defaults to [Sys.argv]. *)
let identity ?argv () =
  let argv =
    Supervisor.self_worker_argv ?argv
      ~drop:(supervisor_flags @ [ "--connect"; "--jobs"; "-j" ])
      ()
  in
  let placement a =
    a = "--worker"
    || (String.length a > 2 && String.sub a 0 2 = "-j" && a.[2] <> '-')
  in
  match Array.to_list argv with
  | exe :: args ->
      String.concat " "
        (Filename.basename exe :: List.filter (fun a -> not (placement a)) args)
  | [] -> ""

(* What a binary hands the dispatcher: its cells (dense ids 0..n-1), the
   group of a cell key, the computation of one cell key (in a worker or
   in process), and the rendering of merged outcomes. *)
type 'a job = {
  cells : Shard.cell list;
  group : string -> string;
      (* cells of one group share set-up work and are leased together *)
  compute : string -> Json.t;
  merge : (int * Supervisor.outcome) list -> 'a;
}

(* Cut [cells] into the leases a supervisor hands out, in order: each
   run of consecutive cells of one [group], so the worker that takes it
   does the group's set-up once. *)
let leases ~group (cells : Shard.cell list) =
  List.fold_left
    (fun acc (cell : Shard.cell) ->
      let k = group cell.Shard.c_key in
      match acc with
      | (k', lease) :: rest when k' = k -> (k, cell :: lease) :: rest
      | _ -> (k, [ cell ]) :: acc)
    [] cells
  |> List.rev_map (fun (_, lease) -> List.rev lease)

(* Compute [cells] in process on [jobs] domains, handing each result to
   [record] as it completes.  The in-process mode, and the supervisor's
   fallback when it cannot reach workers. *)
let in_process ~jobs job ~record (cells : Shard.cell list) =
  Array.to_list
    (Parallel.map ~jobs
       (Array.of_list
          (List.map
             (fun (cell : Shard.cell) () ->
               let r = job.compute cell.Shard.c_key in
               record cell.Shard.c_id r;
               (cell.Shard.c_id, r))
             cells)))

(* Lease [cells] to worker processes, cut by [job]'s groups: spawned by
   [--shards], or dialing in to [--listen]. *)
let supervise c ?(heartbeat = Supervisor.default_config.Supervisor.heartbeat)
    ?(wall = Supervisor.default_config.Supervisor.wall) ~opts ~http ~record job
    cells =
  let observe =
    if Report.wanted c.tele || c.metrics_listen <> None then
      Report.supervisor_observer ?trace:opts.Experiment.trace ()
    else ignore
  in
  let pool =
    Option.map
      (fun addr ->
        {
          Supervisor.pl_listen = addr;
          pl_token = c.token;
          pl_campaign = identity ();
        })
      c.listen
  in
  Supervisor.run ?pool ?http ~on_result:record
    ~on_event:(fun ev ->
      Supervisor.logger ev;
      observe ev)
    ~worker_argv:(Supervisor.self_worker_argv ~drop:supervisor_flags ())
    {
      Supervisor.shards = c.shards;
      heartbeat;
      wall;
      inject = Option.map Fault_inject.worker_mode_of_string c.inject;
    }
    ~fallback:(in_process ~jobs:c.jobs job ~record)
    (leases ~group:job.group cells)

(* Open [c]'s checkpoint over [cells], if any: the handle and the cells it
   already holds.  A path that cannot be written ends the run here. *)
let open_checkpoint c ~src (cells : Shard.cell list) =
  match c.checkpoint with
  | None -> (None, [])
  | Some path -> (
      match Checkpoint.resume ~campaign:(identity ()) ~cells path with
      | ck, resumed ->
          Experiment.log_line "[checkpoint] resumed %d of %d cells from %s"
            (List.length resumed) (List.length cells) path;
          Report.count_resumed (List.length resumed);
          (Some ck, resumed)
      | exception Sys_error msg ->
          Tlog.error ~src "--checkpoint %s: %s" path msg;
          exit 2)

(* Run one campaign the way [c]'s flags say, under [opts].  [job] is
   only built once this process knows it serves or runs the campaign;
   [src] tags log lines and [live] renders a /metrics scrape.  [None]
   means this process served as a worker and has nothing to render.
   Worker-fault injection ([--inject-worker-fault]) rides in the
   environment of spawned workers, so any run that spawns none refuses
   it. *)
let run ~opts ?heartbeat ?wall ~src ~live ~(job : unit -> 'a job) c :
    'a option =
  if c.inject <> None && not (c.shards > 1 && c.listen = None) then begin
    Tlog.error ~src
      "worker-fault injection arms spawned workers: it needs --shards N (N > \
       1) without --listen";
    exit 2
  end;
  match (c.worker, c.connect) with
  | true, _ ->
      Shard.worker_main ~jobs:c.jobs ~compute:(job ()).compute ();
      None
  | false, Some addr -> (
      match
        Shard.connect_worker ~jobs:c.jobs ~addr ~token:c.token
          ~campaign:(identity ()) ~compute:(job ()).compute ()
      with
      | Ok () -> None
      | Error reason ->
          Tlog.error ~src "--connect %s: %s" addr reason;
          exit 2)
  | false, None ->
      (* The /metrics listener is bound before the job is built, so its
         port is announced as early as possible; the supervision loop
         answers it. *)
      let http =
        if not (supervised c) then None
        else
          Option.bind c.metrics_listen (fun addr ->
              Report.listen_metrics ~src addr live)
      in
      Fun.protect
        ~finally:(fun () -> Option.iter Protean_telemetry.Http_listener.close http)
        (fun () ->
          let job = job () in
          let ck, resumed = open_checkpoint c ~src job.cells in
          let record id r = Option.iter (fun ck -> Checkpoint.record ck id r) ck in
          let resumed_ids = Hashtbl.of_seq (List.to_seq resumed) in
          let remaining =
            List.filter
              (fun (cell : Shard.cell) ->
                not (Hashtbl.mem resumed_ids cell.Shard.c_id))
              job.cells
          in
          let ok = List.map (fun (id, r) -> (id, Supervisor.O_ok r)) in
          let fresh =
            Fun.protect
              ~finally:(fun () -> Option.iter Checkpoint.close ck)
              (fun () ->
                if remaining = [] then []
                else if supervised c then
                  try
                    supervise c ?heartbeat ?wall ~opts ~http ~record job
                      remaining
                  with Supervisor.Listen_failed reason ->
                    Tlog.error ~src "--listen %s" reason;
                    exit 2
                else ok (in_process ~jobs:c.jobs job ~record remaining))
          in
          Some
            (job.merge
               (List.sort
                  (fun (a, _) (b, _) -> compare (a : int) b)
                  (ok resumed @ fresh))))

(* An experiment grid: [gen] is a table or figure generator memoized
   through [session].  The discovery pass enumerates its cells (sorted
   by key, so supervisor and workers agree on them), each is computed
   as an [Experiment.run_result] — in a worker, in process, or resumed
   from the checkpoint — and the merged results are installed in the
   session before [gen] replays, making the output byte-identical to the
   serial run.  A poisoned cell resolves to the grid's faulted sentinel
   (a nan cell) plus a structured fault report.  Every cell runs under
   the session's options, and the cells of one shared frontend form a
   group. *)
let grid c session gen =
  let module E = Experiment in
  let cells = E.discover session gen in
  (* Re-sort so cells of one shared-frontend group are contiguous: a
     group goes out in one lease, so the worker that takes it builds the
     frontend once, in its process-local cache.  Purely a scheduling
     permutation — the merge is key-based, so replayed output stays
     byte-identical.  A worker resolves cells by key, so it skips the
     sort. *)
  let cells =
    if serving c || not !E.share_frontend then cells
    else
      List.map (fun ((k, s) as cell) -> ((E.frontend_key s, k), cell)) cells
      |> List.stable_sort (fun (a, _) (b, _) ->
             compare (a : string * string) b)
      |> List.map snd
  in
  let specs = Hashtbl.create 64 in
  List.iter (fun (k, s) -> Hashtbl.replace specs k s) cells;
  let keys = Array.of_list (List.map fst cells) in
  {
    cells = List.mapi (fun i (k, _) -> { Shard.c_id = i; c_key = k }) cells;
    group = (fun key -> E.frontend_key (Hashtbl.find specs key));
    compute =
      (fun key ->
        match Hashtbl.find_opt specs key with
        | Some spec ->
            Supervisor.Grid.result_to_json
              (E.compute ~opts:session.E.opts spec)
        | None -> failwith ("unknown cell key: " ^ key));
    merge =
      (fun outcomes ->
        E.install session
          (List.map
             (fun (id, o) ->
               match o with
               | Supervisor.O_ok r ->
                   (keys.(id), Supervisor.Grid.result_of_json r)
               | Supervisor.O_fault { f_key; f_attempts; f_reason } ->
                   E.log_line "[fault] cell=%s: %s (after %d worker attempts)"
                     f_key f_reason f_attempts;
                   (keys.(id), E.faulted_result))
             outcomes);
        gen ());
  }

(* A fuzz grid: one cell per program of each row's campaign, keyed
   [row:program] and computed under {!Fuzz.test_cell}'s exception
   barrier; a lease is [-j] consecutive programs of one row, one per
   worker domain.  The merge hands back each row's cells in program
   order.  A program whose worker died on every attempt (a poisoned
   cell) becomes a skip, as a program that faults twice does.  A refuted
   certificate is counted in its program's cell, as in a serial run. *)
let fuzz c (rows : (Fuzz.campaign * Protean_defense.Defense.t) list) =
  let programs =
    List.mapi
      (fun r (campaign, _) ->
        List.init campaign.Fuzz.programs (fun i -> (r, i)))
      rows
    |> List.concat |> Array.of_list
  in
  let rows = Array.of_list rows in
  let key (r, i) = Printf.sprintf "%d:%d" r i in
  let program k = Scanf.sscanf k "%d:%d%!" (fun r i -> (r, i)) in
  {
    cells =
      List.mapi
        (fun id p -> { Shard.c_id = id; c_key = key p })
        (Array.to_list programs);
    group =
      (fun k ->
        let r, i = program k in
        key (r, i / c.jobs));
    compute =
      (fun k ->
        let r, i = program k in
        let campaign, d = rows.(r) in
        Fuzz.cell_to_json campaign (Fuzz.test_cell campaign d i));
    merge =
      (fun outcomes ->
        let cells = Array.map (fun _ -> []) rows in
        List.iter
          (fun (id, o) ->
            let r, i = programs.(id) in
            let cell =
              match o with
              | Supervisor.O_ok j -> Fuzz.cell_of_json i j
              | Supervisor.O_fault { f_attempts; f_reason; _ } ->
                  let skip =
                    Printf.sprintf "worker crashed on every attempt (%d): %s"
                      f_attempts f_reason
                  in
                  {
                    Fuzz.c_index = i;
                    c_outcome = Fuzz.fresh_outcome ();
                    c_skip = Some skip;
                  }
            in
            cells.(r) <- cell :: cells.(r))
          (List.rev outcomes);
        Array.to_list cells);
  }

(* Two jobs as one campaign: [a]'s cells, then [b]'s, whose keys and
   groups differ from [a]'s (a grid's keys and groups contain '/', a
   fuzz grid's never do).  Each cell is grouped and computed by the job
   it came from, and each part is merged by its own job, [a]'s first. *)
let both a b =
  let na = List.length a.cells and in_a = Hashtbl.create 64 in
  List.iter
    (fun (cell : Shard.cell) -> Hashtbl.replace in_a cell.Shard.c_key ())
    a.cells;
  let pick = Hashtbl.mem in_a in
  {
    cells =
      a.cells
      @ List.map
          (fun (cell : Shard.cell) ->
            { cell with Shard.c_id = na + cell.Shard.c_id })
          b.cells;
    group = (fun k -> if pick k then a.group k else b.group k);
    compute = (fun k -> if pick k then a.compute k else b.compute k);
    merge =
      (fun outcomes ->
        let oa, ob = List.partition (fun (id, _) -> id < na) outcomes in
        let ra = a.merge oa in
        (ra, b.merge (List.map (fun (id, o) -> (id - na, o)) ob)));
  }
