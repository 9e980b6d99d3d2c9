(* Experiment runner: simulate (benchmark, defense-configuration) pairs
   and report runtimes normalized to the unsafe baseline, with
   memoization so the table/figure generators can share runs.

   Following the paper's methodology (Section VIII-A):
   - baselines (unsafe, STT, SPT, SPT-SB) run the *base* binary;
   - PROTEAN configurations run the *ProtCC* binary, compiled with the
     appropriate pass (or with per-function classes for multi-class
     programs);
   - normalized runtime = cycles(defense) / cycles(unsafe-on-base). *)

module Defense = Protean_defense.Defense
module Protcc = Protean_protcc.Protcc
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Policy = Protean_ooo.Policy
module Multicore = Protean_ooo.Multicore
module Stats = Protean_ooo.Stats
module Profile = Protean_ooo.Profile
module Invariants = Protean_ooo.Invariants
module Spec_window = Protean_ooo.Spec_window
module Certify = Protean_protcc.Certify
module Suite = Protean_workloads.Suite
module Program = Protean_isa.Program
module Tlog = Protean_telemetry.Log
module Flame = Protean_telemetry.Flame
module Trace = Protean_telemetry.Trace
module Twindow = Protean_telemetry.Window

type defense_cfg = {
  label : string;
  defense : Defense.t;
  pass : Protcc.pass option;
      (* ProtCC pass to compile the benchmark with; [None] = base binary.
         [Some P_arch] also runs the base binary (ProtCC-ARCH is a no-op)
         but is kept distinct for labelling. *)
}

let base label defense = { label; defense; pass = None }

let protean label defense pass = { label; defense; pass = Some pass }

(* The named configurations of the evaluation (Section VIII-A5). *)
let cfg_unsafe = base "unsafe" Defense.unsafe
let cfg_stt = base "STT" Defense.stt
let cfg_spt = base "SPT" Defense.spt
let cfg_spt_sb = base "SPT-SB" Defense.spt_sb

let protean_cfg mech pass =
  let d, mname =
    match mech with
    | `Delay -> (Defense.prot_delay, "Delay")
    | `Track -> (Defense.prot_track, "Track")
  in
  let pname = Protcc.pass_name pass in
  protean (Printf.sprintf "PROTEAN-%s-%s" mname pname) d pass

(* Multi-class PROTEAN: instrument with each function's own class. *)
let protean_multiclass mech =
  let d, mname =
    match mech with
    | `Delay -> (Defense.prot_delay, "Delay")
    | `Track -> (Defense.prot_track, "Track")
  in
  { label = "PROTEAN-" ^ mname; defense = d; pass = None }

(* Pass names, as protean-sim's [-p] and the golden corpora spell them:
   the ProtCC pass to compile with ([None] = the base binary) and
   whether every function is instead compiled with its own class. *)
let pass_of_name = function
  | "none" -> (None, false)
  | "multiclass" -> (None, true)
  | "arch" -> (Some Protcc.P_arch, false)
  | "cts" -> (Some Protcc.P_cts, false)
  | "ct" -> (Some Protcc.P_ct, false)
  | "unr" -> (Some Protcc.P_unr, false)
  | s -> invalid_arg ("unknown pass: " ^ s)

(* Core names: p, e or test, optionally suffixed "@wN" ("test@w4") for
   the core rescaled to an N-wide structural-port superscalar
   ([Config.with_width], which names the result with the same suffix). *)
let core_of_name s =
  let unknown () = invalid_arg ("unknown core: " ^ s) in
  let base = function
    | "p" -> Config.p_core
    | "e" -> Config.e_core
    | "test" -> Config.test_core
    | _ -> unknown ()
  in
  let is_digit c = c >= '0' && c <= '9' in
  match String.split_on_char '@' s with
  | [ b ] -> base b
  | [ b; w ] when String.starts_with ~prefix:"w" w -> (
      let digits = String.sub w 1 (String.length w - 1) in
      match int_of_string_opt digits with
      | Some n when n > 0 && String.for_all is_digit digits ->
          Config.with_width n (base b)
      | _ -> unknown ())
  | _ -> unknown ()

type run_spec = {
  bench : Suite.benchmark;
  dcfg : defense_cfg;
  config : Config.t;
  spec_model : Policy.spec_model;
  squash_bug : bool;
  multiclass : bool; (* instrument with per-function classes *)
}

type run_result = {
  cycles : float;
  stats : Stats.t list; (* one per core *)
  code_size_ratio : float;
  inserted_moves : int;
  policy_metrics : (string * int) list;
      (* the defense policy's named counters ([Policy.metrics]), read
         once after the run; [] unless telemetry collection is enabled *)
  flame : (string * int) list;
      (* folded flamegraph stacks ("bench;klass;func" -> simulated
         cycles) from the commit-gap profiler; [] unless flame
         collection is enabled.  Per cell, sum of weights == the cell's
         [Stats.cycles] (summed over cores). *)
  frontend : string;
      (* the shared-frontend group this cell ran under (its frontend
         key), or "" when frontend sharing is disabled / the cell
         faulted before the frontend was prepared.  Purely an
         accounting tag: the reporting layer sums reuse per group into
         [protean_frontend_reuse_total]. *)
  window : (string * int) list;
      (* the speculation-window ledger's summary counters
         ([Spec_window.counters]), summed across cores; [] unless window
         collection is enabled.  All members merge by summation, so
         shard/job merge order cannot change the totals. *)
}

(* The run-wide modes, one immutable value per run: built once from
   the parsed flags ([Campaign.setup]) and carried by the session.  A
   spawned worker re-parses the same argv, so it builds the same value;
   a dial-in worker proves it runs that argv in the handshake
   ([Campaign.identity]).
   Every mode defaults off, so a run without flags simulates exactly
   the plain cell: no profiler, no ledger, no audit. *)
type options = {
  check_certs : bool; (* audit each ProtCC compile before its binary runs *)
  policy_metrics : bool; (* read the defense policy's named counters *)
  flame : bool; (* attach the commit-gap profiler per core *)
  window : bool; (* attach the speculation-window ledger per core *)
  paranoid_sched : bool; (* [Invariants.attach_sched] per core *)
  invariants : (Invariants.mode * int) option; (* checker mode, cadence *)
  trace : Trace.t option; (* records cell and leaky-window spans *)
  on_cert : (style:string -> claims:int -> violations:int -> unit) option;
      (* observes each audited certificate ([Certify.audit]) *)
}

let default_options =
  {
    check_certs = false;
    policy_metrics = false;
    flame = false;
    window = false;
    paranoid_sched = false;
    invariants = None;
    trace = None;
    on_cert = None;
  }

let default_fuel = 30_000_000

let pass_id = function
  | Protcc.P_rand (seed, prob) -> Printf.sprintf "rand:%d:%g" seed prob
  | p -> Protcc.pass_name p

(* Compile one source program for [spec].  Under [check_certs] every
   compile result is audited by the independent checker before the
   binary runs; a refuted certificate raises the structured
   [Certify.Cert_violation], which the cell fault barrier ({!compute})
   reports without taking down the rest of the grid. *)
let instrument_program opts spec program =
  let audited (r : Protcc.result) =
    if opts.check_certs then
      ignore (Certify.audit_exn ?on_cert:opts.on_cert ~original:program r);
    (r.Protcc.program, r.Protcc.code_size_ratio, r.Protcc.inserted_moves)
  in
  match (spec.dcfg.pass, spec.multiclass) with
  | None, false -> (program, 1.0, 0)
  | None, true -> audited (Protcc.instrument program)
  | Some pass, _ -> audited (Protcc.instrument ~pass_override:pass program)

(* ------------------------------------------------------------------ *)
(* Shared frontend                                                     *)
(* ------------------------------------------------------------------ *)

(* The defense-*independent* frontend of a cell: the built workload
   program(s), their ProtCC instrumentation, and the per-pc decode
   operand templates ([Pipeline.decode_program]).  Cells that differ
   only in defense mechanism / core model / speculation model share all
   of it — the dynamic fetch/rename *stream* cannot be shared
   bit-identically (squash timing, and hence the wrong-path fetch
   schedule, differs per defense), so the replayable trace is exactly
   the per-pc part the stream is generated from.  The record is
   immutable and domain-safe: programs are never mutated by runs, and
   the decode templates are read-only per construction.  Sharing it
   also shares the ProtCC compile (and its certificate audit): a grid
   compiles each instrumented binary once. *)
type frontend = {
  fe_key : string;
  fe_programs : Program.t array; (* one per core *)
  fe_decode :
    ((Protean_isa.Reg.t * Protean_isa.Insn.role) array array
    * Protean_isa.Reg.t array array)
    array; (* one template pair per core, same order *)
  fe_ratio : float;
  fe_moves : int;
}

(* Off, every cell builds its own frontend: the per-cell reference path
   the tests compare sharing against. *)
let share_frontend = ref true

(* The defense-independent prefix of {!key}: suite/name, the ProtCC
   pass actually applied (base binary when none), multiclass.  Core
   model, speculation model, squash bug and defense label are absent on
   purpose — none of them affect what the frontend produces. *)
let frontend_key spec =
  Printf.sprintf "%s/%s|%s|%b" spec.bench.Suite.suite spec.bench.Suite.name
    (match spec.dcfg.pass with
    | Some pass -> pass_id pass
    | None -> if spec.multiclass then "multiclass" else "base")
    spec.multiclass

(* Process-wide and mutex-guarded: [-j] grids compute cells on
   multiple domains.  Keyed by the frontend key and whether the build was
   audited, so an unaudited build never stands in for an audited one. *)
let frontend_cache : (string * bool, frontend) Hashtbl.t = Hashtbl.create 64
let frontend_cache_lock = Mutex.create ()

let build_frontend ~opts ~fe_key spec =
  let programs, ratio, moves =
    match spec.bench.Suite.kind with
    | Suite.Single f ->
        let program, ratio, moves = instrument_program opts spec (f ()) in
        ([| program |], ratio, moves)
    | Suite.Multi f ->
        (* The last core's ratio and move count stand for the group. *)
        let compiled = Array.map (instrument_program opts spec) (f ()) in
        let ratio, moves =
          Array.fold_left (fun _ (_, r, m) -> (r, m)) (1.0, 0) compiled
        in
        (Array.map (fun (p, _, _) -> p) compiled, ratio, moves)
  in
  {
    fe_key;
    fe_programs = programs;
    fe_decode = Array.map Pipeline.decode_program programs;
    fe_ratio = ratio;
    fe_moves = moves;
  }

(* A compile fault (e.g. a refuted certificate under [--check-certs])
   propagates out uncached, exactly as the per-cell path would raise
   it — the cell fault barrier in {!compute} owns the reporting. *)
let prepare_frontend ?(opts = default_options) spec =
  if not !share_frontend then build_frontend ~opts ~fe_key:"" spec
  else begin
    let fe_key = frontend_key spec in
    let slot = (fe_key, opts.check_certs) in
    Mutex.lock frontend_cache_lock;
    let cached = Hashtbl.find_opt frontend_cache slot in
    Mutex.unlock frontend_cache_lock;
    match cached with
    | Some fe -> fe
    | None ->
        let fe = build_frontend ~opts ~fe_key spec in
        Mutex.lock frontend_cache_lock;
        Hashtbl.replace frontend_cache slot fe;
        Mutex.unlock frontend_cache_lock;
        fe
  end

(* Fold one profiler snapshot through the program's function table into
   collapsed stacks under [root] (defense label, benchmark, optionally
   core).  The residual — cycles after the last commit — goes to a
   synthetic "(no-commit)" frame so the folded weights sum to the run's
   cycle count exactly. *)
let fold_flame ~root program (snap : Profile.snapshot) acc =
  List.iter
    (fun (pc, cyc) ->
      let frames =
        match Program.func_at program pc with
        | Some f ->
            root @ [ Program.string_of_klass f.Program.klass; f.Program.fname ]
        | None -> root @ [ "(unknown)"; Printf.sprintf "pc_%d" pc ]
      in
      Flame.add acc ~frames cyc)
    snap.Profile.snap_flame;
  Flame.add acc ~frames:(root @ [ "(no-commit)" ]) snap.Profile.snap_residual

(* Sum named policy counters across cores (sorted by name, so the list
   is deterministic whatever order cores were created in). *)
let merge_policy_metrics (policies : Policy.t list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (p : Policy.t) ->
      List.iter
        (fun (k, v) ->
          let prev = try Hashtbl.find tbl k with Not_found -> 0 in
          Hashtbl.replace tbl k (prev + v))
        (p.Policy.metrics ()))
    policies;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

(* One span per leaking speculation window (mispredicted with a tainted
   transmitter under it), on a simulated-time track: one cycle = one
   microsecond, its own pid. *)
let trace_leaky_windows tr label ws =
  List.iter
    (fun (w : Spec_window.window) ->
      Trace.span_us tr ~cat:"window" ~pid:1
        ~args:
          [
            ("trigger_pc", string_of_int w.Spec_window.w_pc);
            ("family", Spec_window.trigger_family w.Spec_window.w_trigger);
            ("tainted", string_of_int w.Spec_window.w_tainted);
            ("interventions", string_of_int w.Spec_window.w_interventions);
          ]
        ~ts_us:w.Spec_window.w_opened
        ~dur_us:(w.Spec_window.w_closed - w.Spec_window.w_opened)
        (Printf.sprintf "%s window#%d" label w.Spec_window.w_id))
    ws

(* The checkers [opts] attaches to a core before its first cycle. *)
let attach_checks opts t =
  Option.iter
    (fun (mode, every) -> Invariants.attach ~every mode t)
    opts.invariants;
  if opts.paranoid_sched then Invariants.attach_sched t

(* One cell: the shared frontend, then a single-core or lockstep
   multicore run.  Every core gets, before its first cycle, the
   observers [opts] asks for — its checkers, the commit-gap profiler,
   the speculation-window ledger.  A run that exhausts its fuel fails
   the cell. *)
let execute ?(opts = default_options) spec =
  let bkey =
    Printf.sprintf "%s/%s" spec.bench.Suite.suite spec.bench.Suite.name
  in
  (* Flame collection: a commit-gap profiler per core, flushed through
     the unsubscribe finalizer when we detach after the run.  Window
     ledgers are merged (summed) across cores. *)
  let flame_acc = if opts.flame then Some (Flame.create ()) else None in
  let profiled : Pipeline.t list ref = ref [] in
  let ledgers : (Pipeline.t * Spec_window.t) list ref = ref [] in
  let observe root program (t : Pipeline.t) =
    attach_checks opts t;
    Option.iter
      (fun acc ->
        let sink snap = fold_flame ~root program snap acc in
        Profile.attach ~sink (Profile.create ()) t;
        profiled := t :: !profiled)
      flame_acc;
    if opts.window then ledgers := (t, Spec_window.attach t) :: !ledgers
  in
  let policies = ref [] in
  let make_policy () =
    let p = spec.dcfg.defense.Defense.make () in
    policies := p :: !policies;
    p
  in
  let fe = prepare_frontend ~opts spec in
  let root = [ spec.dcfg.label; bkey ] in
  let cycles, stats, finished =
    match spec.bench.Suite.kind with
    | Suite.Single _ ->
        let program = fe.fe_programs.(0) in
        let r =
          Pipeline.run ~squash_bug:spec.squash_bug ~spec_model:spec.spec_model
            ~decode:fe.fe_decode.(0) ~fuel:default_fuel
            ~on_start:(observe root program) spec.config (make_policy ())
            program ~overlays:[]
        in
        let st = r.Pipeline.stats in
        (Stats.measured_cycles st, [ st ], r.Pipeline.finished)
    | Suite.Multi _ ->
        let on_core i =
          observe (root @ [ Printf.sprintf "core%d" i ]) fe.fe_programs.(i)
        in
        let r =
          Multicore.run ~squash_bug:spec.squash_bug ~spec_model:spec.spec_model
            ~decode:fe.fe_decode ~fuel:default_fuel ~on_core spec.config
            ~make_policy fe.fe_programs
        in
        ( r.Multicore.cycles,
          Array.to_list
            (Array.map
               (fun (c : Pipeline.result) -> c.Pipeline.stats)
               r.Multicore.per_core),
          r.Multicore.finished )
  in
  List.iter Profile.detach !profiled;
  let window =
    List.fold_left
      (fun acc (t, led) ->
        Spec_window.detach t led;
        Option.iter
          (fun tr ->
            trace_leaky_windows tr
              (spec.dcfg.label ^ "/" ^ bkey)
              (Spec_window.leaky_windows led))
          opts.trace;
        Twindow.merge_counters acc (Spec_window.counters led))
      [] !ledgers
  in
  if not finished then
    failwith
      (Printf.sprintf "experiment %s/%s did not finish" spec.bench.Suite.name
         spec.dcfg.label);
  {
    cycles = float_of_int cycles;
    stats;
    code_size_ratio = fe.fe_ratio;
    inserted_moves = fe.fe_moves;
    policy_metrics =
      (if opts.policy_metrics then merge_policy_metrics !policies else []);
    flame = (match flame_acc with None -> [] | Some acc -> Flame.to_list acc);
    frontend = fe.fe_key;
    window;
  }

(* Memoized session.  [collect], when set, switches [run] into a
   discovery mode used by {!discover}: cache misses are recorded (keyed
   for dedup) instead of simulated, so one silenced dry run of a
   generator yields the work-list of a grid.  [opts] are the modes every
   cell of the session is computed under. *)
type session = {
  cache : (string, run_result) Hashtbl.t;
  mutable collect : (string, run_spec) Hashtbl.t option;
  opts : options;
}

let create_session ?(opts = default_options) () =
  { cache = Hashtbl.create 128; collect = None; opts }

let key spec =
  (* The suite qualifies the name: e.g. `mcf` exists in both the
     SPEC2017 and the ARCH-Wasm suites. *)
  Printf.sprintf "%s/%s|%s|%s|%s|%b|%b" spec.bench.Suite.suite
    spec.bench.Suite.name spec.dcfg.label spec.config.Config.name
    (Policy.spec_model_name spec.spec_model)
    spec.squash_bug spec.multiclass

(* Sentinel for a faulted run: grids keep going and the affected table
   cells read as nan instead of the whole process aborting. *)
let faulted_result =
  {
    cycles = nan;
    stats = [];
    code_size_ratio = nan;
    inserted_moves = 0;
    policy_metrics = [];
    flame = [];
    frontend = "";
    window = [];
  }

(* Diagnostic lines (fault reports, supervisor lifecycle) are emitted
   by grid cells on several domains — and, under supervised execution,
   by several *processes*.  They all
   route through the structured logger ([Telemetry.Log]), whose single
   mutex-serialized sink keeps lines whole; shard workers retarget the
   sink at the supervisor's frame protocol so per-worker output never
   shares a raw stderr. *)
let set_line_sink = Tlog.set_sink

let log_line fmt = Printf.ksprintf (fun s -> Tlog.info ~src:"harness" "%s" s) fmt

(* One cell, with the fault barrier: a deadlocked/livelocked simulation
   or a refuted certificate (under [--check-certs]) fails this cell
   only — report the faulting configuration and let the grid continue
   with a nan cell. *)
let compute ?(opts = default_options) spec =
  let t0 = Unix.gettimeofday () in
  let finish r =
    Option.iter
      (fun tr ->
        Trace.span tr ~cat:"cell" ~t0 ~t1:(Unix.gettimeofday ()) (key spec))
      opts.trace;
    r
  in
  let fault msg =
    Tlog.warn ~src:"harness" "[fault] bench=%s defense=%s core=%s: %s"
      spec.bench.Suite.name spec.dcfg.label spec.config.Config.name msg;
    finish faulted_result
  in
  match execute ~opts spec with
  | r -> finish r
  | exception Pipeline.Sim_fault f ->
      Tlog.warn ~src:"harness"
        "[fault] bench=%s defense=%s core=%s spec_model=%s: %s"
        spec.bench.Suite.name spec.dcfg.label spec.config.Config.name
        (Policy.spec_model_name spec.spec_model)
        (Pipeline.fault_to_string f);
      finish faulted_result
  | exception Failure msg -> fault msg
  | exception (Certify.Cert_violation _ as e) -> fault (Printexc.to_string e)

let run session spec =
  let k = key spec in
  match Hashtbl.find_opt session.cache k with
  | Some r -> r
  | None -> (
      match session.collect with
      | Some pending ->
          (* Discovery pass: record the miss, return a placeholder
             (not cached — the parallel fill supplies the real result). *)
          if not (Hashtbl.mem pending k) then Hashtbl.replace pending k spec;
          faulted_result
      | None ->
          let r = compute ~opts:session.opts spec in
          Hashtbl.replace session.cache k r;
          r)

let spec ?(config = Config.p_core) ?(spec_model = Policy.Atcommit)
    ?(squash_bug = false) ?(multiclass = false) bench dcfg =
  { bench; dcfg; config; spec_model; squash_bug; multiclass }

(* Normalized runtime of [dcfg] on [bench] against the unsafe baseline on
   the base binary, same core configuration. *)
let normalized session ?config ?spec_model ?multiclass bench dcfg =
  let r = run session (spec ?config ?spec_model ?multiclass bench dcfg) in
  let u = run session (spec ?config ?spec_model bench cfg_unsafe) in
  r.cycles /. u.cycles

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ProtCC static overhead (Section IX-A2): code size ratio and the
   runtime ratio of the instrumented binary on *unsafe* hardware. *)
let protcc_overhead session bench pass =
  let dcfg = { label = "unsafe+" ^ Protcc.pass_name pass; defense = Defense.unsafe; pass = Some pass } in
  let r = run session (spec bench dcfg) in
  let u = run session (spec bench cfg_unsafe) in
  (r.code_size_ratio, r.cycles /. u.cycles, r.inserted_moves)

(* ------------------------------------------------------------------ *)
(* Grids                                                               *)
(* ------------------------------------------------------------------ *)

(* A table/figure generator [gen] driving [run] through [session] runs
   as a grid ([Campaign.grid]) in three phases, producing output
   byte-identical to a plain serial [gen ()]:

   1. discovery — [gen] runs once with [Format.std_formatter] silenced
      and the session in collect mode, so every cache miss is recorded
      (deduplicated, no simulation happens);
   2. fill — the recorded cells are computed (on [-j] domains, worker
      processes or resumed from a checkpoint) and land in the session
      cache ({!install});
   3. replay — [gen] runs again; every [run] now hits the warm cache,
      so the printed output is exactly the serial output.

   Correctness rests on generators being output-only consumers: the set
   of cells they request doesn't depend on cell results, and cells are
   pure functions of their spec. *)

(* Discovery (phase 1): run [gen] silenced with the session in collect
   mode and return the cache misses sorted by key — a deterministic cell
   list, so independent processes that run the same discovery enumerate
   the same cells at the same indices (the supervised-execution layer
   depends on this). *)
let discover session (gen : unit -> unit) =
  let pending = Hashtbl.create 64 in
  let ppf = Format.std_formatter in
  let saved_out = Format.pp_get_formatter_out_functions ppf () in
  Format.pp_print_flush ppf ();
  session.collect <- Some pending;
  Format.pp_set_formatter_out_functions ppf
    {
      Format.out_string = (fun _ _ _ -> ());
      out_flush = (fun () -> ());
      out_newline = (fun () -> ());
      out_spaces = (fun _ -> ());
      out_indent = (fun _ -> ());
    };
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush ppf ();
      Format.pp_set_formatter_out_functions ppf saved_out;
      session.collect <- None)
    gen;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k s acc -> (k, s) :: acc) pending [])

(* Install externally computed results (phase 2's output) so the replay
   run hits a warm cache. *)
let install session results =
  List.iter (fun (k, r) -> Hashtbl.replace session.cache k r) results

(* Batch the (key-sorted) cell list by frontend group, preserving the
   order of first appearance: a scheduling unit whose cells, run in
   sequence, prepare the group's frontend exactly once.  With sharing
   disabled every cell is its own group. *)
let group_cells cells =
  if not !share_frontend then List.map (fun c -> [ c ]) cells
  else begin
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun ((_, s) as cell) ->
        let fk = frontend_key s in
        match Hashtbl.find_opt tbl fk with
        | Some group -> group := cell :: !group
        | None ->
            Hashtbl.replace tbl fk (ref [ cell ]);
            order := fk :: !order)
      cells;
    List.rev_map (fun fk -> List.rev !(Hashtbl.find tbl fk)) !order
  end
