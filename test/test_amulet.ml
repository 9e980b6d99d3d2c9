(* Security-evaluation tests: the AMuLeT* fuzzer must find violations on
   the unsafe baseline and none on PROTEAN; the pending-squash bug must
   be detectable under the timing adversary and only there; and random
   generated programs must behave identically on the sequential machine
   and the pipeline under every defense. *)

module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Defense = Protean_defense.Defense
module Protcc = Protean_protcc.Protcc
module Pipeline = Protean_ooo.Pipeline
module Config = Protean_ooo.Config

(* A campaign's summed counters, through the serial driver. *)
let run c d = (Fuzz.run_resilient ~shrink:false c d).Fuzz.r_outcome

let small c = { c with Fuzz.programs = 8; inputs_per_program = 3; seed = 5 }

let arch_campaign = small Fuzz.default_campaign

let ct_campaign =
  small
    {
      Fuzz.default_campaign with
      Fuzz.mode_of = Fuzz.ct_seq;
      gen_klass = Gen.G_ct;
      instrumentation = Fuzz.I_pass Protcc.P_ct;
    }

let cts_campaign =
  small
    {
      Fuzz.default_campaign with
      Fuzz.mode_of = Fuzz.cts_seq;
      gen_klass = Gen.G_ct;
      instrumentation = Fuzz.I_pass Protcc.P_cts;
    }

let unprot_campaign =
  small
    {
      Fuzz.default_campaign with
      Fuzz.mode_of = Fuzz.unprot_seq;
      gen_klass = Gen.G_ct;
      instrumentation = Fuzz.I_pass (Protcc.P_rand (3, 0.5));
    }

let test_unsafe_leaks () =
  let out = run arch_campaign Defense.unsafe in
  Alcotest.(check bool) "tests ran" true (out.Fuzz.tests > 0);
  Alcotest.(check bool) "violations found" true (out.Fuzz.violations > 0)

let protean_clean name campaign defense () =
  let out = run campaign defense in
  Alcotest.(check bool) (name ^ " ran tests") true (out.Fuzz.tests > 0);
  Alcotest.(check int) (name ^ " zero violations") 0 out.Fuzz.violations

let test_baselines_clean () =
  (* STT upholds ARCH-SEQ; SPT and SPT-SB uphold CT-SEQ on unmodified
     binaries (Section VII-B4c). *)
  let ct_base = { ct_campaign with Fuzz.instrumentation = Fuzz.I_none } in
  List.iter
    (fun (name, campaign, d) ->
      let out = run campaign d in
      Alcotest.(check int) (name ^ " clean") 0 out.Fuzz.violations)
    [
      ("stt/arch", arch_campaign, Defense.stt);
      ("spt/ct", ct_base, Defense.spt);
      ("spt-sb/ct", ct_base, Defense.spt_sb);
    ]

let test_squash_bug_found_by_timing () =
  let c = { ct_campaign with Fuzz.adversary = Fuzz.Timing; squash_bug = true } in
  let buggy = run c Defense.prot_track in
  Alcotest.(check bool) "timing adversary finds the pending-squash bug" true
    (buggy.Fuzz.violations > 0);
  let fixed = run { c with Fuzz.squash_bug = false } Defense.prot_track in
  Alcotest.(check int) "fixed implementation is clean" 0 fixed.Fuzz.violations

let test_timing_adversary_clean_protean () =
  let c = { ct_campaign with Fuzz.adversary = Fuzz.Timing } in
  let out = run c Defense.prot_track in
  Alcotest.(check int) "prot-track clean under timing" 0 out.Fuzz.violations

(* Generated programs are deterministic and architecture-equivalent on
   the pipeline under every defense. *)
let prop_generated_equivalence =
  QCheck2.Test.make ~name:"generated programs: seq == ooo under all defenses"
    ~count:10
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let program = Gen.generate { Gen.default_spec with Gen.seed } in
      let seq = Helpers.run_sequential program in
      List.for_all
        (fun (d : Defense.t) ->
          let r =
            Pipeline.run ~fuel:500_000 Config.test_core (d.Defense.make ())
              program ~overlays:[]
          in
          r.Pipeline.finished
          && Helpers.regs_equal seq.Protean_arch.Exec.regs r.Pipeline.regs)
        [ Defense.unsafe; Defense.stt; Defense.spt; Defense.prot_track; Defense.prot_delay ])

let tests =
  [
    Alcotest.test_case "unsafe baseline leaks" `Quick test_unsafe_leaks;
    Alcotest.test_case "prot-track clean (CT-SEQ)" `Quick
      (protean_clean "prot-track" ct_campaign Defense.prot_track);
    Alcotest.test_case "prot-delay clean (CT-SEQ)" `Quick
      (protean_clean "prot-delay" ct_campaign Defense.prot_delay);
    Alcotest.test_case "prot-track clean (CTS-SEQ)" `Quick
      (protean_clean "prot-track" cts_campaign Defense.prot_track);
    Alcotest.test_case "prot-track clean (UNPROT-SEQ)" `Quick
      (protean_clean "prot-track" unprot_campaign Defense.prot_track);
    Alcotest.test_case "prot-delay clean (UNPROT-SEQ)" `Quick
      (protean_clean "prot-delay" unprot_campaign Defense.prot_delay);
    Alcotest.test_case "baselines clean" `Quick test_baselines_clean;
    Alcotest.test_case "squash bug found by timing adversary" `Quick
      test_squash_bug_found_by_timing;
    Alcotest.test_case "timing adversary clean on fixed" `Quick
      test_timing_adversary_clean_protean;
    QCheck_alcotest.to_alcotest prop_generated_equivalence;
  ]
