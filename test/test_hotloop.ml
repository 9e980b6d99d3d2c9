(* Hot-loop regression suite.

   Two halves:

   - hook-bus semantics under re-registration: [emit] iterates a
     snapshot, so a handler that unsubscribes (itself or a peer) or
     subscribes mid-delivery must not disturb the in-flight emission,
     and the change must be visible from the next emission on;
     unsubscribing the last subscriber of a kind must clear its
     interest bit so the guarded emission sites go back to the
     zero-cost path;

   - the paranoid scheduler cross-check: with --paranoid-sched the
     pipeline re-derives every scheduler index (unissued list, branch
     list, in-flight queue, LSQ queues, wakeup chains, dormancy) from a
     brute-force ROB scan each cycle and faults on any mismatch, on the
     spinning machine.  The whole golden corpus must run to completion
     under it and still reproduce the recorded lines bit-for-bit — the
     O(active) indexes are exactly the sets the scans would compute, and
     skip-ahead is exactly the spinning machine. *)

module Hooks = Protean_ooo.Hooks
module Pipeline = Protean_ooo.Pipeline
module Golden = Protean_harness.Golden
module E = Protean_harness.Experiment
module Suite = Protean_workloads.Suite
module Protcc = Protean_protcc.Protcc
module Config = Protean_ooo.Config
module Defense = Protean_defense.Defense
module Spec_window = Protean_ooo.Spec_window
module S = Protean_ooo.Pipeline_state
module Rob_entry = Protean_ooo.Rob_entry
module Insn = Protean_isa.Insn
module Reg = Protean_isa.Reg

(* --- Hook bus re-registration semantics ------------------------------ *)

let test_unsubscribe_during_emit () =
  let bus : unit Hooks.t = Hooks.create () in
  let log = ref [] in
  let seen name = log := name :: !log in
  Hooks.subscribe bus ~name:"a" (fun () _ ->
      seen "a";
      (* Unsubscribe a peer later in the array and ourselves: both must
         still be delivered to for *this* emission. *)
      Hooks.unsubscribe bus "b";
      Hooks.unsubscribe bus "a");
  Hooks.subscribe bus ~name:"b" (fun () _ -> seen "b");
  Hooks.emit bus () Hooks.On_cycle_end;
  Alcotest.(check (list string))
    "first emission delivers to the snapshot" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (list string)) "both gone afterwards" [] (Hooks.subscribers bus);
  log := [];
  Hooks.emit bus () Hooks.On_cycle_end;
  Alcotest.(check (list string)) "second emission delivers to nobody" [] !log

let test_subscribe_during_emit () =
  let bus : unit Hooks.t = Hooks.create () in
  let log = ref [] in
  Hooks.subscribe bus ~name:"a" (fun () _ ->
      log := "a" :: !log;
      if not (List.mem "late" (Hooks.subscribers bus)) then
        Hooks.subscribe bus ~name:"late" (fun () _ -> log := "late" :: !log));
  Hooks.emit bus () Hooks.On_cycle_end;
  Alcotest.(check (list string))
    "new subscriber not delivered to mid-flight" [ "a" ] (List.rev !log);
  Hooks.emit bus () Hooks.On_cycle_end;
  Alcotest.(check (list string))
    "visible from the next emission" [ "a"; "a"; "late" ]
    (List.sort compare !log)

let test_interest_mask_clearing () =
  let bus : unit Hooks.t = Hooks.create () in
  Alcotest.(check bool) "empty bus wants nothing" false
    (Hooks.wanted bus Hooks.k_stage);
  Hooks.subscribe bus ~name:"p1" ~kinds:[ Hooks.k_stage ] (fun () _ -> ());
  Hooks.subscribe bus ~name:"p2"
    ~kinds:[ Hooks.k_stage; Hooks.k_cycle_end ]
    (fun () _ -> ());
  Alcotest.(check bool) "k_stage wanted" true (Hooks.wanted bus Hooks.k_stage);
  Alcotest.(check bool) "k_cycle_end wanted" true
    (Hooks.wanted bus Hooks.k_cycle_end);
  Alcotest.(check bool) "undeclared kind not wanted" false
    (Hooks.wanted bus Hooks.k_fetch);
  Hooks.unsubscribe bus "p2";
  Alcotest.(check bool) "k_stage still wanted (p1 remains)" true
    (Hooks.wanted bus Hooks.k_stage);
  Alcotest.(check bool) "k_cycle_end bit cleared with its last subscriber"
    false
    (Hooks.wanted bus Hooks.k_cycle_end);
  Hooks.unsubscribe bus "p1";
  Alcotest.(check bool) "all bits cleared" false
    (Hooks.wanted bus Hooks.k_stage)

let test_mask_filtering () =
  let bus : unit Hooks.t = Hooks.create () in
  let got = ref 0 in
  Hooks.subscribe bus ~name:"narrow" ~kinds:[ Hooks.k_cycle_end ] (fun () _ ->
      incr got);
  Hooks.emit bus () Hooks.On_machine_clear;
  Alcotest.(check int) "undeclared kind filtered out" 0 !got;
  Hooks.emit bus () Hooks.On_cycle_end;
  Alcotest.(check int) "declared kind delivered" 1 !got

(* --- Paranoid scheduler cross-check over the golden corpus ----------- *)

let expected_file () =
  List.find Sys.file_exists
    [
      "golden_pipeline.expected";
      "test/golden_pipeline.expected";
      Filename.concat (Filename.dirname Sys.executable_name)
        "golden_pipeline.expected";
    ]

let read_expected () =
  let ic = open_in (expected_file ()) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_paranoid_golden () =
  let expected = read_expected () in
  let actual =
    Golden.lines ~opts:{ E.default_options with E.paranoid_sched = true } ()
  in
  Alcotest.(check int) "corpus size" (List.length expected)
    (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check string) (Printf.sprintf "paranoid cell %d" i) e a)
    (List.combine expected actual)

(* --- Shared-frontend batch vs per-cell equivalence ------------------- *)

(* A mixed-defense grid slice: the base-binary defenses (unsafe, STT,
   SPT-SB) share one frontend per benchmark, each ProtCC pass gets one
   per (benchmark, pass) — several groups, each spanning multiple
   cells. *)
let grid_slice () =
  let bn = Suite.find "ossl.bnexp" in
  let bear = Suite.find "bearssl" in
  let config = Config.test_core in
  [
    E.spec ~config bn E.cfg_unsafe;
    E.spec ~config bn E.cfg_stt;
    E.spec ~config bn E.cfg_spt_sb;
    E.spec ~config bn (E.protean_cfg `Track Protcc.P_unr);
    E.spec ~config bn (E.protean_cfg `Delay Protcc.P_unr);
    E.spec ~config bear E.cfg_unsafe;
    E.spec ~config bear (E.protean_cfg `Track Protcc.P_ct);
  ]

let with_sharing v f =
  let saved = !E.share_frontend in
  E.share_frontend := v;
  Fun.protect ~finally:(fun () -> E.share_frontend := saved) f

(* Every observable of a cell must be identical whether its frontend
   came from the shared cache or was built per cell. *)
let test_shared_frontend_equivalence () =
  let specs = grid_slice () in
  let shared = with_sharing true (fun () -> List.map E.compute specs) in
  let solo = with_sharing false (fun () -> List.map E.compute specs) in
  List.iteri
    (fun i ((sh : E.run_result), (so : E.run_result)) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d cycles" i)
        true
        (compare sh.E.cycles so.E.cycles = 0);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d stats" i)
        true (sh.E.stats = so.E.stats);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d code size" i)
        true
        (compare sh.E.code_size_ratio so.E.code_size_ratio = 0);
      Alcotest.(check int)
        (Printf.sprintf "cell %d moves" i)
        so.E.inserted_moves sh.E.inserted_moves;
      Alcotest.(check string)
        (Printf.sprintf "cell %d per-cell run untagged" i)
        "" so.E.frontend)
    (List.combine shared solo);
  (* ... and the shared run really did group: every cell tagged with
     its frontend key, strictly fewer groups than cells. *)
  let tags = List.map (fun (r : E.run_result) -> r.E.frontend) shared in
  List.iteri
    (fun i t ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d tagged" i)
        true (t <> ""))
    tags;
  Alcotest.(check bool) "frontends shared across cells" true
    (List.length (List.sort_uniq compare tags) < List.length tags)

(* A -j 2 grid prewarms the session cache before its replay (cells
   sorted by frontend group, dealt to two domains) and must land exactly
   the serial per-cell results there. *)
let test_shared_frontend_prewarm () =
  let specs = grid_slice () in
  let gen session () = List.iter (fun s -> ignore (E.run session s)) specs in
  let serial = E.create_session () in
  gen serial ();
  let par = E.create_session () in
  Protean_harness.Campaign.grid (Helpers.campaign ~jobs:2 ()) ~src:"test" par
    (gen par);
  Alcotest.(check int) "cell count" (Hashtbl.length serial.E.cache)
    (Hashtbl.length par.E.cache);
  Hashtbl.iter
    (fun k (r : E.run_result) ->
      match Hashtbl.find_opt par.E.cache k with
      | None -> Alcotest.fail ("missing cell " ^ k)
      | Some (r' : E.run_result) ->
          Alcotest.(check bool) (k ^ " identical") true
            (compare r.E.cycles r'.E.cycles = 0
            && r.E.stats = r'.E.stats
            && compare r.E.code_size_ratio r'.E.code_size_ratio = 0
            && r.E.inserted_moves = r'.E.inserted_moves
            && String.equal r.E.frontend r'.E.frontend))
    serial.E.cache

(* --- Speculation-window ledger: free when detached ------------------- *)

let window_workload () =
  let b = Suite.find "bearssl" in
  match b.Suite.kind with
  | Suite.Single f -> f ()
  | Suite.Multi _ -> assert false

let window_fuel = 400_000

let window_drive t =
  while (not (Pipeline.is_done t)) && t.S.cycle < window_fuel do
    Pipeline.step ~until:window_fuel t
  done

(* A fresh pipeline (default stats subscriber only) must not want either
   window kind: the On_window_* emission sites stay on their guarded
   zero-cost path unless a ledger subscribes. *)
let test_window_kinds_unwatched () =
  let d = Defense.find "prot-track" in
  let t =
    Pipeline.create Config.test_core (d.Defense.make ()) (window_workload ())
      ~overlays:[]
  in
  Alcotest.(check bool) "k_window_open not wanted" false
    (S.wants t Hooks.k_window_open);
  Alcotest.(check bool) "k_window_close not wanted" false
    (S.wants t Hooks.k_window_close);
  let led = Spec_window.attach t in
  Alcotest.(check bool) "attached ledger wants window-open" true
    (S.wants t Hooks.k_window_open);
  Spec_window.detach t led;
  Alcotest.(check bool) "detach clears the interest bit" false
    (S.wants t Hooks.k_window_open)

(* The guarded emission pattern of the real sites (stage_rename /
   stage_issue_exec / squash): with no On_window_* subscriber the guard
   is one load and a bit test — a million un-wanted emissions must
   allocate zero minor words per iteration (only the two Gc probes'
   boxed floats show up). *)
let test_window_guard_alloc_free () =
  let bus : unit Hooks.t = Hooks.create () in
  Hooks.subscribe bus ~name:"other" ~kinds:[ Hooks.k_cycle_end ] (fun () _ ->
      ());
  let e =
    Rob_entry.create ~seq:0 ~pc:0
      ~insn:(Insn.make (Insn.Binop (Insn.Add, Reg.of_int 0, Insn.Imm 1L)))
      ~t_fetch:0 ()
  in
  let sink = ref 0 in
  let g0 = Gc.minor_words () in
  for _ = 1 to 1_000_000 do
    if Hooks.wanted bus Hooks.k_window_open then begin
      incr sink;
      Hooks.emit bus () (Hooks.On_window_open e)
    end;
    if Hooks.wanted bus Hooks.k_window_close then begin
      incr sink;
      Hooks.emit bus ()
        (Hooks.On_window_close { entry = e; cause = Hooks.W_resolved })
    end
  done;
  let g1 = Gc.minor_words () in
  Alcotest.(check int) "no emission fired" 0 !sink;
  Alcotest.(check bool)
    (Printf.sprintf "un-wanted window emissions allocation-free (%.0f words)"
       (g1 -. g0))
    true
    (g1 -. g0 < 64.)

(* Attaching the ledger must be observationally transparent to the
   simulation: identical cycle count and identical stats, with the
   ledger itself seeing the speculation the workload is known to have. *)
let test_window_ledger_transparent () =
  let d = Defense.find "prot-track" in
  let program = window_workload () in
  let make () =
    Pipeline.create Config.test_core (d.Defense.make ()) program ~overlays:[]
  in
  let plain = make () in
  window_drive plain;
  let t = make () in
  let led = Spec_window.attach t in
  window_drive t;
  Spec_window.detach t led;
  Alcotest.(check int) "cycles identical" plain.S.cycle t.S.cycle;
  Alcotest.(check bool) "stats identical with ledger attached" true
    (plain.S.stats = t.S.stats);
  let c = Spec_window.counters led in
  let n name = match List.assoc_opt name c with Some v -> v | None -> 0 in
  Alcotest.(check bool) "ledger saw windows" true (n "windows_opened" > 0);
  Alcotest.(check int) "every window accounted"
    (n "windows_opened")
    (n "windows_resolved" + n "windows_mispredicted" + n "windows_flushed"
   + n "windows_unclosed")

let tests =
  [
    Alcotest.test_case "hooks: unsubscribe during emit" `Quick
      test_unsubscribe_during_emit;
    Alcotest.test_case "hooks: subscribe during emit" `Quick
      test_subscribe_during_emit;
    Alcotest.test_case "hooks: interest bits track subscribers" `Quick
      test_interest_mask_clearing;
    Alcotest.test_case "hooks: per-subscriber kind filtering" `Quick
      test_mask_filtering;
    Alcotest.test_case "window ledger: kinds unwatched by default" `Quick
      test_window_kinds_unwatched;
    Alcotest.test_case "window ledger: un-wanted emission allocation-free"
      `Quick test_window_guard_alloc_free;
    Alcotest.test_case "window ledger: attach is observationally transparent"
      `Quick test_window_ledger_transparent;
    Alcotest.test_case "paranoid scheduler cross-check (golden corpus)" `Slow
      test_paranoid_golden;
    Alcotest.test_case "shared frontend: batch == per-cell" `Slow
      test_shared_frontend_equivalence;
    Alcotest.test_case "shared frontend: prewarm batches == serial" `Slow
      test_shared_frontend_prewarm;
  ]
