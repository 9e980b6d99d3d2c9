(* Security fuzzing walkthrough: test the unsafe core and PROTEAN against
   the ARCH-SEQ contract with the AMuLeT*-style fuzzer, then demonstrate
   how the timing-based adversary model catches the pending-squash
   implementation bug that the default cache+TLB adversary misses
   (Section VII-B4b).

     dune exec examples/fuzz_defense.exe *)

module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Defense = Protean.Defense
module Protcc = Protean.Protcc

(* A campaign's summed counters (no counterexample shrinking). *)
let run c d = (Fuzz.run_resilient ~shrink:false c d).Fuzz.r_outcome

let show name (o : Fuzz.outcome) =
  Printf.printf "  %-34s tests=%-3d skipped=%-3d violations=%-3d fp=%d\n" name
    o.Fuzz.tests o.Fuzz.skipped o.Fuzz.violations o.Fuzz.false_positives

let () =
  let base =
    { Fuzz.default_campaign with Fuzz.programs = 12; inputs_per_program = 4 }
  in
  print_endline "ARCH-SEQ contract, unmodified binaries, cache+TLB adversary:";
  show "unsafe" (run base Defense.unsafe);
  show "PROTEAN (ProtTrack)" (run base Defense.prot_track);
  show "PROTEAN (ProtDelay)" (run base Defense.prot_delay);

  print_endline "\nCT-SEQ contract, ProtCC-CT binaries:";
  let ct =
    {
      base with
      Fuzz.mode_of = Fuzz.ct_seq;
      gen_klass = Gen.G_ct;
      instrumentation = Fuzz.I_pass Protcc.P_ct;
    }
  in
  show "unsafe" (run ct Defense.unsafe);
  show "PROTEAN (ProtTrack)" (run ct Defense.prot_track);

  print_endline
    "\nThe pending-squash bug (inherited from STT's gem5 implementation):";
  let timing = { ct with Fuzz.adversary = Fuzz.Timing } in
  show "buggy, cache+TLB adversary"
    (run { ct with Fuzz.squash_bug = true } Defense.prot_track);
  show "buggy, timing adversary"
    (run { timing with Fuzz.squash_bug = true } Defense.prot_track);
  show "fixed, timing adversary" (run timing Defense.prot_track);
  print_endline
    "\nOnly the fine-grained timing adversary (visible to SMT receivers)\n\
     surfaces the secret-dependent squash delay; the fix restores a clean\n\
     bill of health."
