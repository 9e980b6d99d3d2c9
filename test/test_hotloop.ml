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
     pipeline re-derives every scheduler index (ready-bit vector, branch
     list, in-flight queue, LSQ queues, wakeup chains, dormancy) from a
     brute-force ROB scan each cycle and faults on any mismatch, on the
     spinning machine.  The whole golden corpus must run to completion
     under it and still reproduce the recorded lines bit-for-bit — the
     O(active) indexes are exactly the sets the scans would compute, and
     skip-ahead is exactly the spinning machine.  The check itself is
     shown to catch a corrupted ready bit in both directions, a
     corrupted held bit or threshold, and a load missing from the load
     queue;

   - parking: a transmitter the execution gate refuses is asked again
     only when the frontier reaches its threshold, not every cycle;

   - allocation: the policy gates the issue and resolve stages poll
     several times per cycle allocate nothing, for every defense, and
     neither does an L1D hit. *)

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
module Policy = Protean_ooo.Policy
module Invariants = Protean_ooo.Invariants
module Entryq = Protean_ooo.Entryq

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
    (Hooks.wanted bus Hooks.k_commit);
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
  Hooks.emit bus () (Hooks.On_stage 0);
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
    Golden.lines
      ~opts:{ E.default_options with E.paranoid_sched = true }
      Golden.corpus
  in
  Alcotest.(check int) "corpus size" (List.length expected)
    (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check string) (Printf.sprintf "paranoid cell %d" i) e a)
    (List.combine expected actual)

(* A pipeline over [bench] (bearssl unless given; P-core unless
   [config] says otherwise), stepped (skip-ahead on) to [cycles]. *)
let p_core_bearssl ?(config = Config.p_core) ?(bench = "bearssl")
    (d : Defense.t) ~cycles =
  let b = Suite.find bench in
  let program =
    match b.Suite.kind with
    | Suite.Single f -> f ()
    | Suite.Multi _ -> assert false
  in
  let t = Pipeline.create config (d.Defense.make ()) program ~overlays:[] in
  while (not (Pipeline.is_done t)) && t.S.cycle < cycles do
    Pipeline.step ~until:cycles t
  done;
  t

let sched_invs t =
  List.sort_uniq compare
    (List.map (fun v -> v.Invariants.inv) (Invariants.check_sched t))

(* Must the issue scan visit [e]?  Yes when every source is ready, or
   when some non-ready source's producer has already executed (or
   committed): only an entry whose every pending source waits on an
   un-executed producer may be dormant.  A parked entry waits in [held]
   or [mdp_wait] instead. *)
let must_visit (t : S.t) (e : Rob_entry.t) =
  let visit = ref true in
  for i = 0 to Array.length e.Rob_entry.src_ready - 1 do
    if not e.Rob_entry.src_ready.(i) then visit := false
  done;
  for i = 0 to Array.length e.Rob_entry.src_ready - 1 do
    if not e.Rob_entry.src_ready.(i) then begin
      let p = S.peek t e.Rob_entry.src_producer.(i) in
      if Rob_entry.is_null p || p.Rob_entry.executed then visit := true
    end
  done;
  let slot = S.idx_of_seq t e.Rob_entry.seq in
  !visit
  && (not e.Rob_entry.issued)
  && not (S.held_mem t slot || S.mdp_mem t slot)

(* The live entry satisfying [pred] nearest the ROB head. *)
let find_live t pred =
  let rec go i =
    if i >= t.S.count then None
    else
      let e = S.peek t (t.S.head_seq + i) in
      if pred e then Some e else go (i + 1)
  in
  go 0

(* The paranoid check has teeth on the ready-bit vector: clearing the
   bit of an entry the scan must still visit is reported as a false
   dormancy, setting the bit of an issued entry as a bad ready bit, and
   restoring either bit makes the check clean again. *)
let test_sched_ready_teeth () =
  let t = p_core_bearssl (Defense.find "prot-track") ~cycles:0 in
  let found = ref None in
  while !found = None && (not (Pipeline.is_done t)) && t.S.cycle < 50_000 do
    Pipeline.step t;
    if S.rob_full t then
      match
        ( find_live t (must_visit t),
          find_live t (fun e -> e.Rob_entry.issued) )
      with
      | Some v, Some i -> found := Some (v, i)
      | _ -> ()
  done;
  let visit, issued =
    match !found with
    | Some p -> p
    | None -> Alcotest.fail "no full ROB with both kinds of entry"
  in
  let slot e = S.idx_of_seq t e.Rob_entry.seq in
  Alcotest.(check (list string)) "clean before corruption" [] (sched_invs t);
  Alcotest.(check bool) "entry to visit has its bit" true
    (S.ready_mem t (slot visit));
  S.ready_clear t (slot visit);
  Alcotest.(check (list string)) "cleared bit of an entry to visit"
    [ "sched-dormant" ] (sched_invs t);
  S.ready_set t (slot visit);
  Alcotest.(check (list string)) "clean after restoring it" [] (sched_invs t);
  Alcotest.(check bool) "issued entry has no bit" false
    (S.ready_mem t (slot issued));
  S.ready_set t (slot issued);
  Alcotest.(check (list string)) "set bit of an issued entry"
    [ "sched-ready" ] (sched_invs t);
  S.ready_clear t (slot issued);
  Alcotest.(check (list string)) "clean after clearing it" [] (sched_invs t)

(* The same teeth on the held set: a held transmitter whose bit is
   cleared reads as a false dormancy and a count mismatch, a held bit on
   an issued entry as a bad parked bit, and a threshold the gate would
   not give (here: one the frontier already reached) as a bad held
   entry; restoring each makes the check clean again. *)
let test_sched_held_teeth () =
  let t = p_core_bearssl ~bench:"lbm" (Defense.find "stt") ~cycles:0 in
  let found = ref None in
  while !found = None && (not (Pipeline.is_done t)) && t.S.cycle < 50_000 do
    Pipeline.step t;
    if t.S.held_count > 0 then
      match
        ( find_live t (fun e ->
              S.held_mem t (S.idx_of_seq t e.Rob_entry.seq)),
          find_live t (fun e -> e.Rob_entry.issued) )
      with
      | Some h, Some i -> found := Some (h, i)
      | _ -> ()
  done;
  let held, issued =
    match !found with
    | Some p -> p
    | None -> Alcotest.fail "no held transmitter beside an issued entry"
  in
  let slot e = S.idx_of_seq t e.Rob_entry.seq in
  Alcotest.(check (list string)) "clean before corruption" [] (sched_invs t);
  S.bit_clear t.S.held (slot held);
  Alcotest.(check (list string)) "cleared bit of a held entry"
    [ "sched-dormant"; "sched-held" ] (sched_invs t);
  S.bit_set t.S.held (slot held);
  Alcotest.(check (list string)) "clean after restoring it" [] (sched_invs t);
  S.bit_set t.S.held (slot issued);
  Alcotest.(check bool) "set bit of an issued entry" true
    (List.mem "sched-parked" (sched_invs t));
  S.bit_clear t.S.held (slot issued);
  Alcotest.(check (list string)) "clean after clearing it" [] (sched_invs t);
  let thr = t.S.held_thr.(slot held) in
  t.S.held_thr.(slot held) <- S.frontier t;
  Alcotest.(check (list string)) "threshold the frontier reached"
    [ "sched-held" ] (sched_invs t);
  t.S.held_thr.(slot held) <- thr;
  Alcotest.(check (list string)) "clean after restoring it" [] (sched_invs t)

(* The same teeth on the load queue, whose length rename's capacity
   stall reads: a live load dropped from [lsq_loads] mid-run is reported
   against the ring's count of loads, and putting it back is clean. *)
let test_sched_lq_teeth () =
  let t = p_core_bearssl (Defense.find "unsafe") ~cycles:0 in
  let q = t.S.lsq_loads in
  while
    Entryq.length q < 2 && (not (Pipeline.is_done t)) && t.S.cycle < 50_000
  do
    Pipeline.step t
  done;
  if Entryq.length q < 2 then Alcotest.fail "no two loads in flight";
  Alcotest.(check (list string)) "clean before corruption" [] (sched_invs t);
  let last = q.Entryq.a.(q.Entryq.back - 1) in
  Entryq.truncate_ge q last.Rob_entry.seq;
  Alcotest.(check (list string)) "dropped load" [ "sched-lq" ] (sched_invs t);
  Entryq.push q last;
  Alcotest.(check (list string)) "clean after restoring it" [] (sched_invs t)

(* The same teeth on the rename map's producers, which [Invariants.check]
   (not [check_sched]) covers: a register pointed at an older writer
   while a younger one is in flight, or at a seq outside the ROB, is
   reported as [rmap-producer], and restoring it is clean. *)
let test_rmap_producer_teeth () =
  let t = p_core_bearssl (Defense.find "unsafe") ~cycles:0 in
  let invs () =
    List.sort_uniq compare
      (List.map (fun v -> v.Invariants.inv) (Invariants.check t))
  in
  let found = ref None in
  while !found = None && (not (Pipeline.is_done t)) && t.S.cycle < 50_000 do
    Pipeline.step t;
    (* Each register's in-flight writers, youngest first. *)
    let writers = Array.make (Array.length t.S.rmap_producer) [] in
    S.iter_rob t (fun e ->
        Array.iter
          (fun d ->
            let ri = Reg.to_int d in
            writers.(ri) <- e.Rob_entry.seq :: writers.(ri))
          e.Rob_entry.dsts);
    Array.iteri
      (fun ri ws ->
        match ws with
        | young :: old :: _ when !found = None -> found := Some (ri, old, young)
        | _ -> ())
      writers
  done;
  let ri, old, young =
    match !found with
    | Some f -> f
    | None -> Alcotest.fail "no register with two writers in flight"
  in
  Alcotest.(check (list string)) "clean before corruption" [] (invs ());
  t.S.rmap_producer.(ri) <- old;
  Alcotest.(check (list string)) "an older writer mapped" [ "rmap-producer" ]
    (invs ());
  t.S.rmap_producer.(ri) <- t.S.head_seq + t.S.count + 5;
  Alcotest.(check (list string)) "a seq outside the ROB mapped"
    [ "rmap-producer" ] (invs ());
  t.S.rmap_producer.(ri) <- young;
  Alcotest.(check (list string)) "clean after restoring it" [] (invs ())

(* STT's gate on the P-core's [lbm], where thirty-odd transmitters wait
   for their taint roots in an average stepped cycle: parked until the
   frontier reaches them, they are asked less than once per stepped
   cycle in all (an ask on every visit made 3,183,349 calls in 96,748
   stepped cycles). *)
let test_gate_calls () =
  let calls = ref 0 in
  let stt = Defense.find "stt" in
  let counting =
    {
      stt with
      Defense.make =
        (fun () ->
          let p = stt.Defense.make () in
          {
            p with
            Policy.transmit_frontier =
              (fun ap e ->
                incr calls;
                p.Policy.transmit_frontier ap e);
          });
    }
  in
  let spec =
    Golden.spec_of (Golden.cell ~config:"p" (Golden.Bench "lbm") "stt")
  in
  let spec = { spec with E.dcfg = { spec.E.dcfg with E.defense = counting } } in
  let st = List.hd (E.execute spec).E.stats in
  let module Stats = Protean_ooo.Stats in
  let stepped = st.Stats.cycles - st.Stats.skipped_cycles in
  Alcotest.(check int) "stall cycles as pinned" 3_158_733
    st.Stats.transmitter_stall_cycles;
  if !calls = 0 || !calls >= stepped then
    Alcotest.failf "%d gate calls in %d stepped cycles" !calls stepped

(* [ready_next] against a brute-force walk of the live window, on ROB
   sizes that are and are not multiples of the word width, with random
   head positions, occupancies (empty and full included) and bit
   densities: the wrap, the end-of-window bound and the per-word masks
   all agree with the definition. *)
let test_ready_next_brute () =
  let rng = Random.State.make [| 21 |] in
  List.iter
    (fun config ->
      let t = p_core_bearssl ~config (Defense.find "unsafe") ~cycles:0 in
      let n = S.rob_size t in
      let slot off = (t.S.head_idx + off) mod n in
      for trial = 1 to 200 do
        t.S.head_idx <- Random.State.int rng n;
        t.S.count <-
          (match trial mod 4 with
          | 0 -> n
          | 1 -> 0
          | _ -> Random.State.int rng (n + 1));
        Array.fill t.S.ready 0 (Array.length t.S.ready) 0;
        let density = 1 + Random.State.int rng 40 in
        for off = 0 to t.S.count - 1 do
          if Random.State.int rng density = 0 then S.ready_set t (slot off)
        done;
        for off = 0 to t.S.count do
          let rec brute o =
            if o >= t.S.count then -1
            else if S.ready_mem t (slot o) then o
            else brute (o + 1)
          in
          Alcotest.(check int)
            (Printf.sprintf "rob %d head %d count %d off %d" n t.S.head_idx
               t.S.count off)
            (brute off) (S.ready_next t off)
        done
      done)
    [ Config.p_core; Config.with_width 1 Config.p_core; Config.test_core ]

(* --- Policy gates allocate nothing ------------------------------------ *)

(* Every defense's three per-cycle gates, polled on every live entry of
   a warm P-core pipeline, allocate nothing: the loop is a [for] loop
   with no closure, so only the two Gc probes' boxed floats show. *)
let test_gates_alloc_free () =
  List.iter
    (fun (d : Defense.t) ->
      let t = p_core_bearssl d ~cycles:3_000 in
      Alcotest.(check bool) (d.Defense.id ^ ": live entries") true
        (t.S.count > 0);
      let pol = t.S.policy and ap = t.S.api in
      let sink = ref 0 in
      let g0 = Gc.minor_words () in
      for _ = 1 to 200 do
        for i = 0 to t.S.count - 1 do
          let e = S.peek t (t.S.head_seq + i) in
          if pol.Policy.transmit_frontier ap e <= Policy.frontier ap then
            incr sink;
          if pol.Policy.may_resolve ap e then incr sink;
          if pol.Policy.may_forward ap e then incr sink
        done
      done;
      let g1 = Gc.minor_words () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d gate polls allocation-free (%.0f words)"
           d.Defense.id (200 * 3 * t.S.count) (g1 -. g0))
        true
        (g1 -. g0 < 64.))
    Defense.all

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
  Helpers.grid (Helpers.campaign ~jobs:2 ()) par (gen par);
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

(* A fresh pipeline (no subscriber at all) must not want either
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

(* A cache hit answers a [bool] over [int] tags: nothing to allocate.
   The miss details the trace path reads stay exact. *)
let test_cache_hit_alloc_free () =
  let module Cache = Protean_ooo.Cache in
  let c = Cache.create Config.p_core.Config.l1d in
  ignore (Cache.access c 0x1000L);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Cache.access c 0x1008L))
  done;
  let words = Gc.minor_words () -. w0 in
  if words >= 100. then
    Alcotest.failf "10,000 L1D hits allocated %.0f minor words" words;
  (* 1 KiB direct-mapped, 64-byte lines: 0 and 1024 share set 0. *)
  let c = Cache.create { Config.size_kib = 1; ways = 1; line = 64; latency = 1 } in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0L);
  Alcotest.(check bool) "conflict miss" false (Cache.access c 1024L);
  let m = Cache.last_miss c in
  Alcotest.(check int) "set" 0 m.Cache.set;
  Alcotest.(check int64) "tag" 16L m.Cache.tag;
  Alcotest.(check (option int64)) "victim line" (Some 0L) m.Cache.evicted;
  Alcotest.(check bool) "hit" true (Cache.access c 1030L)

let tests =
  [
    Alcotest.test_case "cache hit allocation-free" `Quick
      test_cache_hit_alloc_free;
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
    Alcotest.test_case "scheduler check catches a corrupted ready bit" `Quick
      test_sched_ready_teeth;
    Alcotest.test_case "scheduler check catches a corrupted held bit" `Quick
      test_sched_held_teeth;
    Alcotest.test_case "scheduler check catches a dropped load" `Quick
      test_sched_lq_teeth;
    Alcotest.test_case "invariant check catches a corrupted rename map" `Quick
      test_rmap_producer_teeth;
    Alcotest.test_case "a refused transmitter is asked once it can issue"
      `Quick test_gate_calls;
    Alcotest.test_case "ready_next == brute-force window walk" `Quick
      test_ready_next_brute;
    Alcotest.test_case "policy gates allocation-free (every defense)" `Quick
      test_gates_alloc_free;
    Alcotest.test_case "shared frontend: batch == per-cell" `Slow
      test_shared_frontend_equivalence;
    Alcotest.test_case "shared frontend: prewarm batches == serial" `Slow
      test_shared_frontend_prewarm;
  ]
