(* Golden determinism corpus: a fixed set of (program × defense ×
   configuration) cells whose cycle counts and observer-trace digests
   were recorded from the pre-refactor (seed) pipeline.

   The stage-module pipeline must be *cycle-exact*: it has to reproduce
   every recorded line bit-for-bit, serially and under a parallel grid
   (`-j 4`).  `test/golden_pipeline.expected` holds the recorded lines;
   `protean-tables golden` regenerates them (only ever rerecord from a
   pipeline known to be correct). *)

module Defense = Protean_defense.Defense
module Pipeline = Protean_ooo.Pipeline
module Policy = Protean_ooo.Policy
module Stats = Protean_ooo.Stats
module Hw_trace = Protean_ooo.Hw_trace
module Suite = Protean_workloads.Suite
module Gen = Protean_amulet.Gen
module E = Experiment

type source =
  | Bench of string (* Suite benchmark name *)
  | Rand of Gen.klass_gen * int (* generated program, by class and seed *)

type cell = {
  c_source : source;
  c_defense : string; (* Defense id *)
  c_pass : string; (* a pass name ([Experiment.pass_of_name]) *)
  c_config : string; (* a core name ([Experiment.core_of_name]) *)
  c_model : Policy.spec_model;
  c_squash_bug : bool;
}

let cell ?(pass = "none") ?(config = "test") ?(model = Policy.Atcommit)
    ?(squash_bug = false) source defense =
  {
    c_source = source;
    c_defense = defense;
    c_pass = pass;
    c_config = config;
    c_model = model;
    c_squash_bug = squash_bug;
  }

let source_name = function
  | Bench n -> n
  | Rand (k, seed) ->
      let kn =
        match k with
        | Gen.G_arch -> "arch"
        | Gen.G_ct -> "ct"
        | Gen.G_unr -> "unr"
        | Gen.G_gadget -> "gadget"
      in
      Printf.sprintf "gen:%s:%d" kn seed

let key c =
  Printf.sprintf "%s|%s|%s|%s|%s|%b" (source_name c.c_source) c.c_defense
    c.c_pass c.c_config
    (Policy.spec_model_name c.c_model)
    c.c_squash_bug

(* A corpus cell as an experiment cell: the defense id is the label,
   and a generated program is a one-off benchmark of a "gen" suite. *)
let spec_of c =
  let bench =
    match c.c_source with
    | Bench name -> Suite.find name
    | Rand (klass, seed) ->
        {
          Suite.name = source_name c.c_source;
          suite = "gen";
          klass = Gen.klass_of_gen klass;
          kind =
            Suite.Single
              (fun () ->
                Gen.generate { Gen.seed; klass; blocks = 24; block_len = 12 });
        }
  in
  let pass, multiclass = E.pass_of_name c.c_pass in
  E.spec ~config:(E.core_of_name c.c_config) ~spec_model:c.c_model
    ~squash_bug:c.c_squash_bug ~multiclass bench
    { E.label = c.c_defense; defense = Defense.find c.c_defense; pass }

let trace_digest trace =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Format.asprintf "%a" Hw_trace.pp_event e);
      Buffer.add_char buf '\n')
    (Hw_trace.all trace);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A cell's observable outcome under [opts].  A single-core cell
   re-runs with the hardware trace on, over the experiment's shared
   frontend (a [run_result] carries no trace) and with [opts]'s
   checkers; a multicore cell is the experiment cell itself, which
   fails rather than return an unfinished run. *)
let outcome ~opts (spec : E.run_spec) =
  match spec.E.bench.Suite.kind with
  | Suite.Single _ ->
      let fe = E.prepare_frontend ~opts spec in
      let r =
        Pipeline.run ~trace:true ~squash_bug:spec.E.squash_bug
          ~spec_model:spec.E.spec_model ~decode:fe.E.fe_decode.(0)
          ~fuel:E.default_fuel ~on_start:(E.attach_checks opts) spec.E.config
          (spec.E.dcfg.E.defense.Defense.make ())
          fe.E.fe_programs.(0) ~overlays:[]
      in
      let st = r.Pipeline.stats in
      Printf.sprintf "%d|%d|%d|%s" st.Stats.cycles st.Stats.committed
        st.Stats.squashes
        (trace_digest r.Pipeline.trace)
  | Suite.Multi _ ->
      let r = E.execute ~opts spec in
      let per_core =
        List.map
          (fun (st : Stats.t) ->
            Printf.sprintf "%d:%d" st.Stats.cycles st.Stats.committed)
          r.E.stats
      in
      Printf.sprintf "%d|true|%s" (int_of_float r.E.cycles)
        (String.concat "," per_core)

(* One corpus line: the cell key followed by its observable outcome. *)
let run_cell ?(opts = E.default_options) c =
  key c ^ "|" ^ outcome ~opts (spec_of c)

let corpus =
  (* Random programs exercise deep speculation, squashes, forwarding and
     the defense gates on the small test core. *)
  let rand =
    List.concat_map
      (fun seed ->
        List.map
          (fun d -> cell (Rand (Gen.G_arch, seed)) d)
          [ "unsafe"; "nda"; "stt"; "spt"; "spt-sb" ])
      [ 101; 102; 103 ]
    @ List.concat_map
        (fun seed ->
          List.map
            (fun d -> cell ~pass:"ct" (Rand (Gen.G_ct, seed)) d)
            [ "prot-delay"; "prot-track"; "spt" ])
        [ 201; 202 ]
    @ List.map
        (fun d -> cell ~pass:"unr" (Rand (Gen.G_unr, 301)) d)
        [ "prot-delay"; "prot-track" ]
    (* The pending-squash corner case and the CONTROL speculation model. *)
    @ [
        cell ~squash_bug:true (Rand (Gen.G_arch, 101)) "stt";
        cell ~squash_bug:true (Rand (Gen.G_arch, 101)) "spt-sb";
        cell ~model:Policy.Control (Rand (Gen.G_arch, 102)) "stt";
        cell ~model:Policy.Control ~pass:"arch" (Rand (Gen.G_arch, 102))
          "prot-track";
      ]
    (* The three-level hierarchy (P-core has an L3; the test core none). *)
    @ [ cell ~config:"p" (Rand (Gen.G_arch, 101)) "unsafe" ]
  in
  (* Real workloads: each defense × a few benchmarks per class. *)
  let benches =
    [
      cell (Bench "bearssl") "unsafe";
      cell (Bench "bearssl") "stt";
      cell ~pass:"ct" (Bench "bearssl") "prot-track";
      cell (Bench "hacl.poly1305") "unsafe";
      cell ~pass:"cts" (Bench "hacl.poly1305") "prot-delay";
      cell (Bench "ossl.bnexp") "unsafe";
      cell (Bench "ossl.bnexp") "spt-sb";
      cell ~pass:"unr" (Bench "ossl.bnexp") "prot-track";
      cell (Bench "w32-index") "spt";
      cell (Bench "w32-index") "spt-no-w32-fix";
      cell (Bench "lbm") "unsafe";
      cell ~config:"p" (Bench "lbm") "unsafe";
      cell (Bench "lbm") "stt";
      (* Multicore cells: lockstep cores sharing the LLC. *)
      cell (Bench "swaptions.p") "unsafe";
      cell (Bench "swaptions.p") "stt";
      cell ~pass:"multiclass" (Bench "nginx.c1r1") "prot-track";
    ]
  in
  rand @ benches

(* A corpus's lines, in corpus order.  [jobs > 1] runs one task per
   shared-frontend group ([Experiment.group_cells]) on a parallel grid
   ([Parallel.map]) and re-emits the lines in corpus order (cells with
   equal keys have equal lines); the lines are identical either way —
   that equality is the determinism property the golden suite asserts. *)
let corpus_lines ?(jobs = 1) ?(opts = E.default_options) cells =
  if jobs <= 1 then List.map (run_cell ~opts) cells
  else
    let tasks =
      E.group_cells (List.map (fun c -> (key c, spec_of c)) cells)
      |> List.map (fun group () ->
             List.map
               (fun (k, spec) -> (k, k ^ "|" ^ outcome ~opts spec))
               group)
      |> Array.of_list
    in
    let lines = List.concat (Array.to_list (Parallel.map ~jobs tasks)) in
    List.map (fun c -> List.assoc (key c) lines) cells

let lines ?jobs ?opts () = corpus_lines ?jobs ?opts corpus

(* Width-sweep corpus: the structural-port model across issue widths
   1/2/4/6/8 on three single-core benchmarks × three defenses.  Each
   (bench, delay-defense) pair keeps the instrumentation pass already
   proven for it in the main corpus.  Recorded in
   test/golden_width.expected; the suite asserts serial, `-j 4` and a
   two-shard supervised run all reproduce it byte-for-byte. *)
let width_corpus =
  let widths = [ 1; 2; 4; 6; 8 ] in
  let benches =
    [ ("bearssl", "ct"); ("hacl.poly1305", "cts"); ("ossl.bnexp", "unr") ]
  in
  List.concat_map
    (fun w ->
      let config = "test@w" ^ string_of_int w in
      List.concat_map
        (fun (b, delay_pass) ->
          [
            cell ~config (Bench b) "unsafe";
            cell ~config (Bench b) "stt";
            cell ~config ~pass:delay_pass (Bench b) "prot-delay";
          ])
        benches)
    widths

let width_lines ?jobs ?opts () = corpus_lines ?jobs ?opts width_corpus

let width_keys () = List.map key width_corpus

(* Run one width cell by key — the compute function a supervised shard
   worker uses when the grid distributes the width corpus. *)
let run_width_key ?opts k =
  match List.find_opt (fun c -> String.equal (key c) k) width_corpus with
  | Some c -> run_cell ?opts c
  | None -> invalid_arg ("Golden.run_width_key: unknown cell " ^ k)
