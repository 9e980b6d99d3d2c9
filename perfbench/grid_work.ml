(* The Table V grid, in process.

   [untraced] is one pass as the harness runs it: discover the cells,
   compute them group by group through [Experiment.compute], install the
   results and render the table.  [traced] replays the same cells
   through the layers' public calls instead (Suite builder,
   [Protcc.instrument], [Pipeline.decode_program], [Pipeline.run] /
   [Multicore.run]), with a span around each, round-trips every result
   through the shard frame codec, and renders the table from the
   replayed results, so the two passes can be compared cell by cell. *)

module E = Protean_harness.Experiment
module Tables = Protean_harness.Tables
module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Suite = Protean_workloads.Suite
module Protcc = Protean_protcc.Protcc
module Defense = Protean_defense.Defense
module Pipeline = Protean_ooo.Pipeline
module Multicore = Protean_ooo.Multicore
module Stats = Protean_ooo.Stats
module J = Protean_harness.Shard.Json

let generator session () = Tables.table_v session

(* The rendered table: exactly the bytes protean-tables prints on
   stdout for this target. *)
let render session =
  let buf = Buffer.create 4096 in
  let ppf = Format.std_formatter in
  Format.pp_print_flush ppf ();
  let out, flush = Format.pp_get_formatter_output_functions ppf () in
  Format.pp_set_formatter_output_functions ppf (Buffer.add_substring buf) ignore;
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush ppf ();
      Format.pp_set_formatter_output_functions ppf out flush)
    (generator session);
  Buffer.contents buf

(* Geomean over every Table V row of PROTEAN-Track and PROTEAN-Delay
   normalized runtime against unsafe, read from a warm session. *)
let overheads session =
  let rows =
    List.concat_map
      (fun (_, suite, _, pass) ->
        let delay, track = Tables.protean_cfgs_for pass in
        let multiclass = pass = None in
        List.map
          (fun b ->
            ( E.normalized session ~multiclass b track,
              E.normalized session ~multiclass b delay ))
          suite)
      Tables.suite_rows
  in
  (E.geomean (List.map fst rows), E.geomean (List.map snd rows), List.length rows)

let cell_cycles (r : E.run_result) =
  List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.cycles) 0 r.E.stats

let faulted (r : E.run_result) = Float.is_nan r.E.cycles

(* The fields both passes report, so run.py can compare them. *)
let result_fields session results =
  E.install session (List.map (fun (k, r, _) -> (k, r)) results);
  let table = render session in
  let track, delay, rows = overheads session in
  [
    ("table", J.Str table);
    ("table_md5", J.Str (Digest.to_hex (Digest.string table)));
    ("cells", J.Int (List.length results));
    ( "faulted",
      J.Int (List.length (List.filter (fun (_, r, _) -> faulted r) results)) );
    ( "sim_cycles",
      J.Int (List.fold_left (fun acc (_, r, _) -> acc + cell_cycles r) 0 results)
    );
    ("overhead_track", J.Float track);
    ("overhead_delay", J.Float delay);
    ("overhead_rows", J.Int rows);
    ( "per_cell",
      J.List
        (List.map
           (fun (k, r, s) ->
             J.Obj
               [
                 ("key", J.Str k);
                 ("cycles", J.Int (cell_cycles r));
                 ("faulted", J.Bool (faulted r));
                 ("s", J.Float s);
               ])
           results) );
  ]

let untraced ~setup_only =
  let session = E.create_session () in
  let cells = E.discover session (generator session) in
  let t_first_op = Unix.gettimeofday () in
  if setup_only then [ ("t_first_op", J.Float t_first_op) ]
  else begin
    let groups = E.group_cells cells in
    let results =
      List.concat_map
        (List.map (fun (key, spec) ->
             let t0 = Unix.gettimeofday () in
             let r = E.compute spec in
             (key, r, Unix.gettimeofday () -. t0)))
        groups
    in
    (("t_first_op", J.Float t_first_op)
    :: ("frontend_groups", J.Int (List.length groups))
    :: result_fields session results)
  end

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

type frontend = {
  key : string;
  programs : Protean_isa.Program.t array;
  decode :
    ((Protean_isa.Reg.t * Protean_isa.Insn.role) array array
    * Protean_isa.Reg.t array array)
    array;
  ratio : float;
  moves : int;
}

(* What [Experiment.build_frontend] does for a group, one span per
   layer call. *)
let build_frontend sp (spec : E.run_spec) =
  let instrument program =
    let compile pass =
      let r : Protcc.result =
        Spans.run sp "protcc.instrument" (fun () ->
            Protcc.instrument ?pass_override:pass program)
      in
      (r.Protcc.program, r.Protcc.code_size_ratio, r.Protcc.inserted_moves)
    in
    match (spec.E.dcfg.E.pass, spec.E.multiclass) with
    | None, false -> (program, 1.0, 0)
    | None, true -> compile None
    | Some pass, _ -> compile (Some pass)
  in
  let programs, ratio, moves =
    match spec.E.bench.Suite.kind with
    | Suite.Single f ->
        let p, r, m = instrument (Spans.run sp "workloads.build" f) in
        ([| p |], r, m)
    | Suite.Multi f ->
        let compiled = Array.map instrument (Spans.run sp "workloads.build" f) in
        let _, r, m = compiled.(Array.length compiled - 1) in
        (Array.map (fun (p, _, _) -> p) compiled, r, m)
  in
  {
    key = (if !E.share_frontend then E.frontend_key spec else "");
    programs;
    decode =
      Array.map
        (fun p -> Spans.run sp "ooo.decode" (fun () -> Pipeline.decode_program p))
        programs;
    ratio;
    moves;
  }

(* Host seconds and simulated cycles per defense, inside the OoO run. *)
let charge per_defense defense dur cycles =
  let s, c =
    match Hashtbl.find_opt per_defense defense with
    | Some x -> x
    | None ->
        let x = (ref 0., ref 0) in
        Hashtbl.replace per_defense defense x;
        x
  in
  s := !s +. dur;
  c := !c + cycles

(* What [Experiment.execute] does for one cell, telemetry aside. *)
let run_cell sp per_defense fe (spec : E.run_spec) =
  let defense = spec.E.dcfg.E.defense in
  let args = [ ("defense", defense.Defense.id) ] in
  let result stats cycles finished =
    if not finished then
      failwith
        (Printf.sprintf "experiment %s/%s did not finish"
           spec.E.bench.Suite.name spec.E.dcfg.E.label);
    {
      E.cycles;
      stats;
      code_size_ratio = fe.ratio;
      inserted_moves = fe.moves;
      policy_metrics = [];
      flame = [];
      frontend = fe.key;
      window = [];
    }
  in
  match spec.E.bench.Suite.kind with
  | Suite.Single _ ->
      let r, dur =
        Spans.timed sp ~args "ooo.run" (fun () ->
            Pipeline.run ~squash_bug:spec.E.squash_bug
              ~spec_model:spec.E.spec_model ~decode:fe.decode.(0)
              ~fuel:E.default_fuel spec.E.config
              (defense.Defense.make ()) fe.programs.(0) ~overlays:[])
      in
      charge per_defense defense.Defense.id dur r.Pipeline.stats.Stats.cycles;
      result [ r.Pipeline.stats ]
        (float_of_int (Stats.measured_cycles r.Pipeline.stats))
        r.Pipeline.finished
  | Suite.Multi _ ->
      let r, dur =
        Spans.timed sp ~args "ooo.run" (fun () ->
            Multicore.run ~squash_bug:spec.E.squash_bug
              ~spec_model:spec.E.spec_model ~decode:fe.decode
              ~fuel:E.default_fuel spec.E.config
              ~make_policy:defense.Defense.make fe.programs)
      in
      let stats =
        Array.to_list
          (Array.map (fun (c : Pipeline.result) -> c.Pipeline.stats)
             r.Multicore.per_core)
      in
      charge per_defense defense.Defense.id dur
        (List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.cycles) 0 stats);
      result stats (float_of_int r.Multicore.cycles) r.Multicore.finished

(* The fault barrier of [Experiment.compute]: a failing cell reads as
   nan and the grid goes on. *)
let guarded f =
  match f () with
  | r -> r
  | exception (Pipeline.Sim_fault _ | Failure _) -> E.faulted_result

(* Every result through the supervisor's wire format: result JSON, a
   length-prefixed frame, the incremental decoder, and back. *)
let codec sp results =
  let dec = Shard.Decoder.create () in
  let bytes = ref 0 and mismatches = ref 0 in
  List.iteri
    (fun id (_, (r : E.run_result), _) ->
      Spans.run sp "harness.codec" (fun () ->
          let frame =
            Shard.encode_frame
              (Shard.F_result (id, Supervisor.Grid.result_to_json r))
          in
          bytes := !bytes + Bytes.length frame;
          Shard.Decoder.feed dec frame 0 (Bytes.length frame);
          match Shard.Decoder.next dec with
          | Some (Shard.F_result (id', j)) when id' = id ->
              let r' = Supervisor.Grid.result_of_json j in
              if
                not
                  (Float.equal r.E.cycles r'.E.cycles
                  && r.E.stats = r'.E.stats
                  && r.E.frontend = r'.E.frontend)
              then incr mismatches
          | _ -> incr mismatches))
    results;
  [
    ("frames", J.Int (List.length results));
    ("frame_bytes", J.Int !bytes);
    ("mismatches", J.Int !mismatches);
  ]

let sum_stats results field =
  List.fold_left
    (fun acc (_, (r : E.run_result), _) ->
      List.fold_left (fun acc s -> acc + field s) acc r.E.stats)
    0 results

let traced sp =
  let session = E.create_session () in
  let cells =
    Spans.run sp "harness.discover" (fun () ->
        E.discover session (generator session))
  in
  let groups = E.group_cells cells in
  let per_defense = Hashtbl.create 8 in
  let results =
    List.concat_map
      (fun group ->
        let fe =
          match group with
          | (_, spec) :: _ -> (try Some (build_frontend sp spec) with _ -> None)
          | [] -> None
        in
        List.map
          (fun (key, spec) ->
            let r, dur =
              Spans.timed sp ~args:[ ("cell", key) ] "cell" (fun () ->
                  match fe with
                  | Some fe -> guarded (fun () -> run_cell sp per_defense fe spec)
                  | None -> E.faulted_result)
            in
            (key, r, dur))
          group)
      groups
  in
  let codec = codec sp results in
  let fields = Spans.run sp "harness.render" (fun () -> result_fields session results) in
  let totals =
    [
      ("cycles", Stats.(fun s -> s.cycles));
      ("committed", Stats.(fun s -> s.committed));
      ("fetched", Stats.(fun s -> s.fetched));
      ("squashed_insns", Stats.(fun s -> s.squashed_insns));
      ("skipped_cycles", Stats.(fun s -> s.skipped_cycles));
      ("l1d_accesses", Stats.(fun s -> s.l1d_accesses));
      ("l1d_misses", Stats.(fun s -> s.l1d_misses));
    ]
  in
  fields
  @ [
      ("frontend_groups", J.Int (List.length groups));
      ("codec", J.Obj codec);
      ( "stats",
        J.Obj (List.map (fun (k, f) -> (k, J.Int (sum_stats results f))) totals)
      );
      ( "per_defense",
        J.Obj
          (Hashtbl.fold
             (fun id (s, c) acc ->
               (id, J.Obj [ ("s", J.Float !s); ("cycles", J.Int !c) ]) :: acc)
             per_defense []) );
    ]
