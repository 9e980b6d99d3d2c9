(* The campaign driver shared by protean-sim, protean-tables and
   protean-fuzz: the flags all three declare, the process set-up they
   imply, and the dispatch between the four ways a run executes.

   - [--worker]: serve cells to a supervisor over frames on
     stdin/stdout (this process was spawned by [--shards]);
   - [--connect HOST:PORT]: serve cells as a dial-in worker of a
     [--listen]ing supervisor;
   - [--shards N] (N > 1) or [--listen HOST:PORT]: supervise — lease the
     cells to worker processes through {!Supervisor.run}, with the run
     log, the telemetry observer and the live /metrics endpoint;
   - otherwise the binary's own in-process path ([-j] domains).

   A binary supplies only what differs: its cells, how a worker
   computes one, how merged outcomes render, and its in-process path. *)

open Cmdliner
module Json = Shard.Json
module Fault_inject = Protean_defense.Fault_inject

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
}

let term ~check_certs_doc =
  let path name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)
  in
  let addr name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"HOST:PORT" ~doc)
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let make jobs shards worker metrics_out trace_out flamegraph_out attr_out
      log_json listen connect token metrics_listen check_certs =
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
    $ flag "check-certs" check_certs_doc)

(* Is this process a worker ([--worker] or [--connect])?  Workers keep
   the exporter flags so they collect telemetry for their cells (it
   rides home in the result frames), but only the parent writes files. *)
let serving c = c.worker || c.connect <> None

let supervised c = c.shards > 1 || c.listen <> None

(* Process set-up every binary starts with.  The flags it reads stay in
   a spawned worker's argv, so it sets itself up the same way. *)
let setup c =
  Protean_ooo.Gc_tune.tune ();
  if c.log_json then Protean_telemetry.Log.set_json true;
  Report.enable ~worker:(serving c) c.tele

(* Flags that configure only the supervising process.  They must not
   reach a spawned worker's argv: the worker re-runs the same discovery
   pass, and any argv drift would change the cell enumeration.  (The
   boolean [--inject-faults] of protean-fuzz is its in-process self-test
   and never reaches a supervised run.) *)
let supervisor_flags =
  [
    "--shards"; "--inject-faults"; "--inject-worker-fault"; "--shard-heartbeat";
    "--shard-wall"; "--checkpoint-dir"; "--listen"; "--metrics-listen";
    "--campaign-token";
  ]

(* What a binary hands the dispatcher: its cells (dense ids 0..n-1), a
   worker's computation of one cell key, the in-process computation the
   supervisor falls back to, and the rendering of merged outcomes. *)
type 'a job = {
  cells : Shard.cell list;
  compute : string -> Json.t;
  fallback : string -> Json.t;
  merge : (int * Supervisor.outcome) list -> 'a;
}

(* Supervise [job].  The /metrics listener is bound before the job is
   built, so its port is announced as early as possible; the supervision
   loop answers it. *)
let supervise c ?(heartbeat = Supervisor.default_config.Supervisor.heartbeat)
    ?(wall = Supervisor.default_config.Supervisor.wall) ?checkpoint_dir ?inject
    ~src ~live job =
  let http =
    Option.bind c.metrics_listen (fun addr ->
        Report.listen_metrics ~src addr live)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Protean_telemetry.Http_listener.close http)
    (fun () ->
      let job = job () in
      if job.cells = [] then job.merge []
      else begin
        let config =
          {
            Supervisor.default_config with
            Supervisor.shards = c.shards;
            heartbeat;
            wall;
            checkpoint_dir;
            inject = Option.map Fault_inject.worker_mode_of_string inject;
          }
        in
        let bus = Supervisor.create_bus () in
        Supervisor.subscribe bus ~name:"log" Supervisor.logger;
        if Report.wanted c.tele || c.metrics_listen <> None then
          Supervisor.subscribe bus ~name:"telemetry"
            (Report.supervisor_observer ());
        let pool =
          Option.map
            (fun addr ->
              {
                Supervisor.default_pool_config with
                Supervisor.pl_listen = addr;
                pl_token = c.token;
              })
            c.listen
        in
        let fallback remaining =
          Array.to_list
            (Parallel.map ~jobs:c.jobs
               (Array.of_list
                  (List.map
                     (fun (cell : Shard.cell) () ->
                       (cell.Shard.c_id, job.fallback cell.Shard.c_key))
                     remaining)))
        in
        job.merge
          (Supervisor.run ~bus ?pool ?http
             ~worker_argv:(Supervisor.self_worker_argv ~drop:supervisor_flags ())
             config ~fallback job.cells)
      end)

(* Run one campaign the way [c]'s flags say.  [job] is only built when
   this process serves or supervises; [src] tags log lines and [live]
   renders a /metrics scrape.  [None] means this process served as a
   worker and has nothing to render. *)
let run ?heartbeat ?wall ?checkpoint_dir ?inject ~src ~live
    ~(job : unit -> 'a job) ~(in_process : unit -> 'a) c : 'a option =
  match (c.worker, c.connect) with
  | true, _ ->
      Shard.worker_main ~jobs:c.jobs ~compute:(job ()).compute ();
      None
  | false, Some addr ->
      Shard.connect_worker ~jobs:c.jobs ~addr ~token:c.token
        ~compute:(job ()).compute ();
      None
  | false, None when supervised c ->
      Some (supervise c ?heartbeat ?wall ?checkpoint_dir ?inject ~src ~live job)
  | false, None -> Some (in_process ())

(* An experiment grid: [gen] is a table or figure generator memoized
   through [session].  Serving or supervising, the discovery pass
   enumerates its cells (sorted by key, so supervisor and workers agree
   on them), workers compute [Experiment.run_result]s, and the merged
   results are installed in the session before [gen] replays — making
   the output byte-identical to the serial run.  A poisoned cell
   resolves to the grid's faulted sentinel (a nan cell) plus a
   structured fault report.  In process, [Experiment.prewarm] fills the
   cells on [-j] domains. *)
let grid c ?heartbeat ?wall ?checkpoint_dir ?inject ~src session gen =
  let module E = Experiment in
  let job () =
    let cells = E.discover session gen in
    (* Re-sort so cells of one shared-frontend group are contiguous:
       [Supervisor.split_shards] hands out contiguous id ranges, so
       grouped cells land on the same worker and its process-local
       frontend cache is built once per group instead of once per
       shard-span fragment.  Purely a scheduling permutation — the merge
       is key-based, so replayed output stays byte-identical.  Only the
       supervisor needs it (a worker resolves cells by key), and it runs
       before the first spawn, so each group key is formatted once. *)
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
    let compute key =
      match Hashtbl.find_opt specs key with
      | Some spec -> Supervisor.Grid.result_to_json (E.compute spec)
      | None -> failwith ("unknown cell key: " ^ key)
    in
    let keys = Array.of_list (List.map fst cells) in
    {
      cells = List.mapi (fun i (k, _) -> { Shard.c_id = i; c_key = k }) cells;
      compute;
      fallback = compute;
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
  in
  ignore
    (run ?heartbeat ?wall ?checkpoint_dir ?inject ~src
       ~live:(Report.live_metrics session) ~job
       ~in_process:(fun () -> E.prewarm ~jobs:c.jobs session gen)
       c)
