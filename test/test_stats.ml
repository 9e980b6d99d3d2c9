(* Every [Stats] counter of thirteen cells, pinned bit-for-bit, and the
   speculation-window ledger of the two that stall transmitters most.

   The golden corpora pin only cycles, commits and squashes (plus the
   hardware-trace digest), so a change to where the core bumps a
   counter could move the other twenty unseen.  The cells below cover
   every counter the pipeline writes: a machine clear and mispredicts
   (the hand-written [Helpers] programs), each defense's stall kinds,
   the access predictor, the structural-port and writeback counters
   ([test@w4]), the L3 and the measurement marker (the P-core), the
   pending-squash bug and a multicore run (one line per core).  Each
   line lists every field in declaration order; on a mismatch the test
   prints the whole actual text, which is what
   test/stats_pinned.expected holds. *)

module Golden = Protean_harness.Golden
module E = Protean_harness.Experiment
module Gen = Protean_amulet.Gen
module Defense = Protean_defense.Defense
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Stats = Protean_ooo.Stats
module Hooks = Protean_ooo.Hooks
module S = Protean_ooo.Pipeline_state
module Policy = Protean_ooo.Policy

let fields (st : Stats.t) =
  [
    ("cycles", string_of_int st.Stats.cycles);
    ("marker_cycle", string_of_int st.Stats.marker_cycle);
    ("committed", string_of_int st.Stats.committed);
    ("fetched", string_of_int st.Stats.fetched);
    ("squashes", string_of_int st.Stats.squashes);
    ("squashed_insns", string_of_int st.Stats.squashed_insns);
    ("branch_mispredicts", string_of_int st.Stats.branch_mispredicts);
    ("machine_clears", string_of_int st.Stats.machine_clears);
    ("mem_order_violations", string_of_int st.Stats.mem_order_violations);
    ("l1d_accesses", string_of_int st.Stats.l1d_accesses);
    ("l1d_misses", string_of_int st.Stats.l1d_misses);
    ( "transmitter_stall_cycles",
      string_of_int st.Stats.transmitter_stall_cycles );
    ("wakeup_delay_cycles", string_of_int st.Stats.wakeup_delay_cycles);
    ("resolution_delay_cycles", string_of_int st.Stats.resolution_delay_cycles);
    ("access_pred_lookups", string_of_int st.Stats.access_pred_lookups);
    ("access_pred_mispredicts", string_of_int st.Stats.access_pred_mispredicts);
    ( "access_pred_false_negatives",
      string_of_int st.Stats.access_pred_false_negatives );
    ("loads_executed", string_of_int st.Stats.loads_executed);
    ("loads_protected_mem", string_of_int st.Stats.loads_protected_mem);
    ( "port_busy",
      String.concat ","
        (Array.to_list (Array.map string_of_int st.Stats.port_busy)) );
    ( "port_structural_stall_cycles",
      string_of_int st.Stats.port_structural_stall_cycles );
    ("wb_queue_stall_cycles", string_of_int st.Stats.wb_queue_stall_cycles);
    ("skipped_cycles", string_of_int st.Stats.skipped_cycles);
  ]

let line name st =
  String.concat " "
    (name :: List.map (fun (k, v) -> k ^ "=" ^ v) (fields st))

(* A [Helpers] program run straight through [Pipeline.run]. *)
let direct name program defense =
  ( Printf.sprintf "%s|%s|test" name defense,
    fun () ->
      let r =
        Pipeline.run ~fuel:1_000_000 Config.test_core
          ((Defense.find defense).Defense.make ())
          program ~overlays:[]
      in
      [ r.Pipeline.stats ] )

(* A golden-corpus style cell run as an experiment cell (every core's
   stats). *)
let cell c =
  (Golden.key c, fun () -> (E.execute (Golden.spec_of c)).E.stats)

(* Cells whose transmitters wait for the speculation frontier: the
   ledger counts each refused cycle as an intervention. *)
let stall_cells =
  [
    Golden.cell ~config:"p" (Golden.Bench "lbm") "stt";
    Golden.cell ~model:Policy.Control ~config:"p" (Golden.Bench "mcf") "spt-sb";
  ]

let cells =
  [
    direct "division" (Helpers.division ()) "unsafe";
    direct "branchy" (Helpers.branchy ()) "stt";
    direct "store_load_sum" (Helpers.store_load_sum 16) "prot-delay";
    cell (Golden.cell (Golden.Rand (Gen.G_arch, 101)) "spt");
    cell (Golden.cell ~squash_bug:true (Golden.Rand (Gen.G_arch, 101)) "stt");
    cell (Golden.cell ~pass:"ct" (Golden.Rand (Gen.G_ct, 201)) "prot-delay");
    cell (Golden.cell ~pass:"ct" (Golden.Bench "bearssl") "prot-track");
    cell (Golden.cell ~pass:"unr" ~config:"test@w4" (Golden.Bench "ossl.bnexp")
            "prot-track");
    cell (Golden.cell ~config:"test@w4" (Golden.Bench "bearssl") "unsafe");
    cell (Golden.cell ~config:"p" (Golden.Bench "lbm") "unsafe");
    cell (Golden.cell (Golden.Bench "swaptions.p") "stt");
  ]
  @ List.map cell stall_cells

(* A stalling cell run with the ledger attached: its key, its stats and
   the ledger's summary counters. *)
let ledger_run c =
  let r =
    E.execute
      ~opts:{ E.default_options with E.window = true }
      (Golden.spec_of c)
  in
  (Golden.key c, r.E.stats, r.E.window)

let window_line (name, _, window) =
  String.concat " "
    (name :: "window"
    :: List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) window)

let lines results =
  List.concat_map
    (fun (name, per_core) ->
      match per_core with
      | [ st ] -> [ line name st ]
      | _ ->
          List.mapi
            (fun i st -> line (Printf.sprintf "%s#%d" name i) st)
            per_core)
    results

(* ProtTrack's access-predictor counters, written by the policy rather
   than the core. *)
let policy_owned =
  [
    "access_pred_lookups";
    "access_pred_mispredicts";
    "access_pred_false_negatives";
  ]

let test_pinned () =
  let results = List.map (fun (name, run) -> (name, run ())) cells in
  let ledgers = List.map ledger_run stall_cells in
  let actual = lines results @ List.map window_line ledgers in
  let expected = Test_golden.read_expected "stats_pinned.expected" in
  if actual <> expected then begin
    print_endline "actual stats_pinned.expected:";
    List.iter print_endline actual
  end;
  Alcotest.(check int) "cell lines" (List.length expected)
    (List.length actual);
  List.iter2 (Alcotest.(check string) "stats line") expected actual;
  (* The ledger only listens: attached, the same cells count the same. *)
  List.iter
    (fun (name, stats, _) ->
      Alcotest.(check (list string))
        (name ^ " stats with the ledger attached")
        (lines [ (name, List.assoc name results) ])
        (lines [ (name, stats) ]))
    ledgers;
  let written =
    List.concat_map (fun (_, per_core) -> List.map fields per_core) results
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k policy_owned) then
        Alcotest.(check bool)
          (k ^ " is nonzero in some cell") true
          (List.exists
             (fun fs -> not (List.mem (List.assoc k fs) [ "0"; "" ]))
             written))
    (fields (Stats.create ()))

(* The stages do the core's own bookkeeping: a fresh pipeline, traced
   or not, has nobody on its hook bus. *)
let test_no_default_subscriber () =
  List.iter
    (fun trace ->
      let t =
        Pipeline.create ~trace Config.test_core
          ((Defense.find "prot-track").Defense.make ())
          (Helpers.branchy ()) ~overlays:[]
      in
      Alcotest.(check (list string))
        (Printf.sprintf "no subscriber (trace %b)" trace)
        []
        (Hooks.subscribers t.S.hooks))
    [ false; true ]

let tests =
  [
    Alcotest.test_case "every counter pinned" `Quick test_pinned;
    Alcotest.test_case "a fresh pipeline has no subscriber" `Quick
      test_no_default_subscriber;
  ]
