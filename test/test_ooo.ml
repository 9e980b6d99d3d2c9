(* Out-of-order pipeline tests: architectural equivalence with the
   sequential machine under every defense, plus targeted micro-behaviours
   (forwarding, misprediction recovery, machine clears). *)

open Protean_isa
module Pipeline = Protean_ooo.Pipeline
module Config = Protean_ooo.Config
module Defense = Protean_defense.Defense

let defenses = Defense.all

let equivalence_tests =
  List.concat_map
    (fun (pname, program) ->
      List.map
        (fun (d : Defense.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s under %s" pname d.Defense.id)
            `Quick
            (fun () ->
              Helpers.check_equivalence ~policy:(d.Defense.make ()) pname
                program))
        defenses)
    Helpers.all_programs

(* Instrumented programs must also run correctly under PROTEAN. *)
let instrumented_equivalence =
  let passes =
    [
      ("cts", Protean_protcc.Protcc.P_cts);
      ("ct", Protean_protcc.Protcc.P_ct);
      ("unr", Protean_protcc.Protcc.P_unr);
      ("rand", Protean_protcc.Protcc.P_rand (42, 0.5));
    ]
  in
  List.concat_map
    (fun (pname, program) ->
      List.concat_map
        (fun (passname, pass) ->
          let compiled =
            Protean_protcc.Protcc.instrument ~pass_override:pass program
          in
          List.map
            (fun (d : Defense.t) ->
              Alcotest.test_case
                (Printf.sprintf "%s/%s under %s" pname passname d.Defense.id)
                `Quick
                (fun () ->
                  Helpers.check_equivalence ~policy:(d.Defense.make ())
                    (pname ^ "/" ^ passname)
                    compiled.Protean_protcc.Protcc.program))
            [ Defense.prot_delay; Defense.prot_track ])
        passes)
    Helpers.all_programs

(* The CONTROL speculation model must also preserve architectural
   results. *)
let control_model_tests =
  List.map
    (fun (pname, program) ->
      Alcotest.test_case (pname ^ " under CONTROL/stt") `Quick (fun () ->
          Helpers.check_equivalence ~spec_model:Protean_ooo.Policy.Control
            ~policy:(Defense.stt.Defense.make ())
            pname program))
    Helpers.all_programs

(* Mispredictions and squashes must occur on branchy code (otherwise no
   transient window exists and the security evaluation is vacuous). *)
let test_mispredictions_happen () =
  let program = Helpers.branchy () in
  let result =
    Pipeline.run ~fuel:1_000_000 Config.test_core Protean_ooo.Policy.unsafe
      program ~overlays:[]
  in
  Alcotest.(check bool)
    "some mispredictions" true
    (result.Pipeline.stats.Protean_ooo.Stats.branch_mispredicts > 0)

let test_machine_clear () =
  let program = Helpers.division () in
  let result =
    Pipeline.run ~fuel:1_000_000 Config.test_core Protean_ooo.Policy.unsafe
      program ~overlays:[]
  in
  Alcotest.(check int)
    "one machine clear" 1
    result.Pipeline.stats.Protean_ooo.Stats.machine_clears

(* Store-to-load forwarding: a load right after a store to the same
   address must not wait for the store to commit. *)
let test_forwarding_fast () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (Asm.i 1234);
  Asm.store c (Asm.mbd Reg.rsp (-8)) (Asm.r Reg.rax);
  Asm.load c Reg.rbx (Asm.mbd Reg.rsp (-8));
  Asm.halt c;
  let program = Asm.finish c in
  let result =
    Pipeline.run ~fuel:10_000 Config.test_core Protean_ooo.Policy.unsafe
      program ~overlays:[]
  in
  Alcotest.(check bool) "finished" true result.Pipeline.finished;
  Alcotest.(check int64)
    "forwarded value" 1234L
    result.Pipeline.regs.(Reg.to_int Reg.rbx)

(* Defense overhead sanity: SPT-SB must be slower than unsafe on
   transmitter-heavy code. *)
let test_sptsb_slower () =
  let program = Helpers.pointer_chase 12 in
  let unsafe =
    Pipeline.run ~fuel:1_000_000 Config.test_core Protean_ooo.Policy.unsafe
      program ~overlays:[]
  in
  let sb =
    Pipeline.run ~fuel:1_000_000 Config.test_core
      (Defense.spt_sb.Defense.make ()) program ~overlays:[]
  in
  Alcotest.(check bool)
    "spt-sb slower" true
    (sb.Pipeline.stats.Protean_ooo.Stats.cycles
    > unsafe.Pipeline.stats.Protean_ooo.Stats.cycles)

(* ROB ring invariant: stepping random generated programs (with their
   mispredictions, squashes and machine clears) never desyncs the ring.
   [Invariants.check] runs after every step; it checks the ring layout
   along with the rest of the machine state. *)
let prop_rob_ring_invariant =
  QCheck2.Test.make ~name:"ROB ring stays consistent" ~count:10
    QCheck2.Gen.(int_range 0 50_000)
    (fun seed ->
      let program =
        Protean_amulet.Gen.generate
          { Protean_amulet.Gen.default_spec with Protean_amulet.Gen.seed }
      in
      let t =
        Pipeline.create Config.test_core Protean_ooo.Policy.unsafe program
          ~overlays:[]
      in
      let steps = ref 0 in
      while (not (Pipeline.is_done t)) && !steps < 100_000 do
        Pipeline.step t;
        (match Protean_ooo.Invariants.check t with
        | [] -> ()
        | { Protean_ooo.Invariants.inv; detail } :: _ ->
            failwith (inv ^ ": " ^ detail));
        incr steps
      done;
      Pipeline.is_done t)

(* Multicore: lockstep threads finish and each core's result matches its
   own sequential run. *)
let test_multicore_equivalence () =
  let programs = Protean_workloads.Parsec.simple_threads (fun tid ->
      Protean_workloads.Parsec.canneal ~moves:64 tid)
  in
  let r =
    Protean_ooo.Multicore.run ~fuel:2_000_000 Config.test_core
      ~make_policy:(fun () -> Protean_ooo.Policy.unsafe)
      programs
  in
  Alcotest.(check bool) "finished" true r.Protean_ooo.Multicore.finished;
  Array.iteri
    (fun i (core : Pipeline.result) ->
      let seq = Helpers.run_sequential programs.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "core %d regs" i)
        true
        (Helpers.regs_equal seq.Protean_arch.Exec.regs core.Pipeline.regs))
    r.Protean_ooo.Multicore.per_core

(* Determinism: the same run twice gives identical cycle counts and
   adversary traces. *)
let test_determinism () =
  let program = Helpers.branchy () in
  let go () =
    let r =
      Pipeline.run ~trace:true ~fuel:1_000_000 Config.test_core
        (Defense.prot_track.Defense.make ()) program ~overlays:[]
    in
    (r.Pipeline.stats.Protean_ooo.Stats.cycles,
     Protean_ooo.Hw_trace.all r.Pipeline.trace)
  in
  let c1, t1 = go () in
  let c2, t2 = go () in
  Alcotest.(check int) "cycles deterministic" c1 c2;
  Alcotest.(check bool) "trace deterministic" true (t1 = t2)

(* Other core configurations compute the same results: the E-core, the
   TAGE predictor, and a two-entry load and store queue, where rename
   stalls on the LSQ's capacity far more often than on the ROB's. *)
let config_equivalence =
  List.concat_map
    (fun (suffix, config) ->
      List.map
        (fun (pname, program) ->
          Alcotest.test_case (pname ^ suffix) `Quick (fun () ->
              Helpers.check_equivalence ~config
                ~policy:Protean_ooo.Policy.unsafe pname program))
        Helpers.all_programs)
    [
      (" on E-core", Config.e_core);
      (" with TAGE", Config.with_tage Config.test_core);
      ( " with a 2-entry LSQ",
        { Config.test_core with Config.lq_size = 2; sq_size = 2 } );
    ]

(* The TAGE predictor learns a strongly biased pattern at least as well
   as the bimodal tables. *)
let test_tage_learns_pattern () =
  (* An alternating-direction branch: TAGE's history tables learn it;
     the bimodal predictor cannot. *)
  let tg = Protean_ooo.Tage.create () in
  let pc = 100 in
  let correct = ref 0 in
  let taken = ref false in
  for _ = 1 to 400 do
    taken := not !taken;
    let snap = Protean_ooo.Tage.snapshot tg pc in
    let p = Protean_ooo.Tage.predict_with tg snap in
    Protean_ooo.Tage.push_history tg p;
    if p = !taken then incr correct
    else Protean_ooo.Tage.repair_last tg !taken (* misprediction repair *);
    Protean_ooo.Tage.update_with tg snap !taken
  done;
  Alcotest.(check bool)
    (Printf.sprintf "alternating pattern learned (%d/400)" !correct)
    true (!correct > 300)

let tests =
  equivalence_tests @ instrumented_equivalence @ control_model_tests
  @ config_equivalence
  @ [ Alcotest.test_case "TAGE learns alternation" `Quick test_tage_learns_pattern ]
  @ [
      QCheck_alcotest.to_alcotest prop_rob_ring_invariant;
      Alcotest.test_case "multicore equivalence" `Quick test_multicore_equivalence;
      Alcotest.test_case "determinism" `Quick test_determinism;
    ]
  @ [
      Alcotest.test_case "mispredictions happen" `Quick test_mispredictions_happen;
      Alcotest.test_case "div fault machine clear" `Quick test_machine_clear;
      Alcotest.test_case "store-to-load forwarding" `Quick test_forwarding_fast;
      Alcotest.test_case "spt-sb has overhead" `Quick test_sptsb_slower;
    ]
