(* Robustness layer tests: microarchitectural invariant checking,
   watchdog deadlock/livelock detection, fuzzer self-testing via fault
   injection, counterexample shrinking and campaign checkpoint/resume
   (the PR-1 acceptance scenarios). *)

open Protean_isa
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Policy = Protean_ooo.Policy
module Invariants = Protean_ooo.Invariants
module Defense = Protean_defense.Defense
module Fault_inject = Protean_defense.Fault_inject
module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Parallel = Protean_harness.Parallel
module Json = Protean_telemetry.Json

let r = Asm.r
let i = Asm.i

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go k = k + n <= m && (String.sub s k n = sub || go (k + 1)) in
  go 0

(* --- invariants ------------------------------------------------------ *)

(* Every seed workload, under both an unprotected and a fully protected
   policy, must run to completion with the invariant checker in Fail
   mode on every cycle. *)
let test_invariants_on_workloads () =
  let checker = Invariants.checker ~every:1 Invariants.Fail in
  List.iter
    (fun (dname, (d : Defense.t)) ->
      List.iter
        (fun (name, program) ->
          let result =
            Pipeline.run ~fuel:2_000_000 ~on_cycle:checker Config.test_core
              (d.Defense.make ()) program ~overlays:[]
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s finished with invariants on" name
               dname)
            true result.Pipeline.finished)
        Helpers.all_programs)
    [ ("unsafe", Defense.unsafe); ("prot-track", Defense.prot_track) ]

(* A just-created pipeline satisfies every invariant. *)
let test_invariants_initial () =
  let program = Helpers.sum_loop 5 in
  let t =
    Pipeline.create Config.test_core Policy.unsafe program ~overlays:[]
  in
  Alcotest.(check int) "no violations at reset" 0 (List.length (Invariants.check t))

let test_mode_of_string () =
  Alcotest.(check bool) "off" true (Invariants.mode_of_string "off" = Invariants.Off);
  Alcotest.(check bool) "warn" true (Invariants.mode_of_string "warn" = Invariants.Warn);
  Alcotest.(check bool) "fail" true (Invariants.mode_of_string "fail" = Invariants.Fail);
  Alcotest.(check bool) "junk rejected" true
    (match Invariants.mode_of_string "junk" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- watchdog -------------------------------------------------------- *)

(* A policy that never lets a transmitter (load) execute livelocks any
   program containing a load: the ROB head never completes, commit
   starves, and the heartbeat must convert that into a structured
   Commit_stall fault carrying the pipeline state. *)
let test_watchdog_commit_stall () =
  let stuck =
    { Policy.unsafe with Policy.may_execute_transmitter = (fun _ _ -> false) }
  in
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rdi (i 0x2000);
  Asm.store c (Asm.mb Reg.rdi) (i 42);
  Asm.load c Reg.rax (Asm.mb Reg.rdi);
  Asm.halt c;
  let program = Asm.finish c in
  let watchdog = { Pipeline.heartbeat = 200; budget = None } in
  match
    Pipeline.run ~watchdog Config.test_core stuck program ~overlays:[]
  with
  | _ -> Alcotest.fail "livelocked program finished"
  | exception Pipeline.Sim_fault f ->
      Alcotest.(check string)
        "fault kind" "commit-stall"
        (Pipeline.fault_kind_name f.Pipeline.fault_kind);
      Alcotest.(check bool)
        "fault cycle past heartbeat" true
        (f.Pipeline.fault_cycle > 200);
      (* The dump names the stuck instruction at the ROB head. *)
      Alcotest.(check bool)
        "head pc recorded" true
        (f.Pipeline.fault_head_pc >= 0)

(* An architecturally infinite loop keeps committing, so the heartbeat
   never fires — only the hard cycle budget catches it. *)
let test_watchdog_budget () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.label c "self";
  Asm.add c Reg.rax (i 1);
  Asm.jmp c "self";
  let program = Asm.finish c in
  let watchdog = { Pipeline.default_watchdog with Pipeline.budget = Some 2_000 } in
  match
    Pipeline.run ~watchdog Config.test_core Policy.unsafe program ~overlays:[]
  with
  | _ -> Alcotest.fail "infinite loop finished"
  | exception Pipeline.Sim_fault f ->
      Alcotest.(check string)
        "fault kind" "cycle-budget-exhausted"
        (Pipeline.fault_kind_name f.Pipeline.fault_kind)

(* --- fuzzer self-test: injected faults must be caught ---------------- *)

let test_fault_injection_matrix () =
  let rows = Fuzz.self_test_matrix ~seed:1 ~programs:3 ~inputs:5 () in
  Alcotest.(check int)
    "one row per fault mode"
    (List.length Fault_inject.all_modes)
    (List.length rows);
  List.iter
    (fun (defense_id, contract, (g : Fuzz.gap)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s injected into %s caught by %s-SEQ fuzzing"
           (Fault_inject.mode_name g.Fuzz.g_mode)
           defense_id contract)
        true g.Fuzz.g_detected)
    rows

(* --- counterexample shrinking ---------------------------------------- *)

(* The unprotected core violates CT-SEQ; the shrunk counterexample must
   still violate and be no larger than the original. *)
let test_shrinking_preserves_violation () =
  let campaign = Fuzz.campaign_for ~seed:1 ~programs:4 ~inputs:3 "ct" in
  let r = Fuzz.run_resilient campaign Defense.unsafe in
  Alcotest.(check bool) "unsafe violates CT-SEQ" true
    (r.Fuzz.r_outcome.Fuzz.violations > 0);
  match r.Fuzz.r_counterexample with
  | None -> Alcotest.fail "no counterexample produced"
  | Some sh ->
      Alcotest.(check bool) "shrunk program still violates" true
        sh.Fuzz.sh_verified;
      Alcotest.(check bool) "shrinking did not grow the program" true
        (sh.Fuzz.sh_insns <= sh.Fuzz.sh_original_insns);
      Alcotest.(check bool) "some replays were spent" true
        (sh.Fuzz.sh_attempts > 0)

(* --- checkpointing --------------------------------------------------- *)

let ck =
  {
    Fuzz.Checkpoint.ck_seed = 42;
    ck_programs = 10;
    ck_inputs = 5;
    ck_next = 7;
    ck_faulted = 1;
    ck_check_certs = false;
    ck_outcome =
      {
        (Fuzz.fresh_outcome ()) with
        Fuzz.tests = 31;
        skipped = 4;
        violations = 2;
        false_positives = 1;
        example = Some (42 + (3 * 7919), 2);
      };
  }

let test_checkpoint_json_roundtrip () =
  match Fuzz.Checkpoint.of_json (Fuzz.Checkpoint.to_json ck) with
  | None -> Alcotest.fail "checkpoint JSON did not parse back"
  | Some c -> Alcotest.(check bool) "round-trip equal" true (c = ck)

let test_checkpoint_file_roundtrip () =
  let path = Filename.temp_file "protean_ck" ".json" in
  Fuzz.Checkpoint.save path ck;
  let back = Fuzz.Checkpoint.load path in
  Sys.remove path;
  Alcotest.(check bool) "file round-trip equal" true (back = Some ck);
  Alcotest.(check bool) "missing file loads as None" true
    (Fuzz.Checkpoint.load path = None)

let test_checkpoint_malformed () =
  Alcotest.(check bool) "garbage rejected" true
    (Fuzz.Checkpoint.of_json "{not json" = None)

(* A checkpoint file truncated mid-write (crash before the atomic rename
   could be introduced, disk-full, ...) must be detected and ignored with
   a warning — never raise, never resume from half a record. *)
let test_checkpoint_truncated_warns () =
  let path = Filename.temp_file "protean_trunc" ".json" in
  let full = Fuzz.Checkpoint.to_json ck in
  let oc = open_out path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  let warned = ref [] in
  let back = Fuzz.Checkpoint.load ~warn:(fun p -> warned := p :: !warned) path in
  Alcotest.(check bool) "truncated checkpoint ignored" true (back = None);
  Alcotest.(check (list string)) "warning fired once, naming the file"
    [ path ] !warned;
  (* An intact file must load silently through the same path. *)
  Fuzz.Checkpoint.save path ck;
  warned := [];
  let back = Fuzz.Checkpoint.load ~warn:(fun p -> warned := p :: !warned) path in
  Sys.remove path;
  Alcotest.(check bool) "intact checkpoint loads" true (back = Some ck);
  Alcotest.(check (list string)) "no warning for intact file" [] !warned

(* Checkpoint saves are atomic: a save over an existing checkpoint goes
   through a tmp file + rename, so a reader never observes a mix of old
   and new bytes and no .tmp residue survives a completed save. *)
let test_checkpoint_save_atomic () =
  let path = Filename.temp_file "protean_atomic" ".json" in
  Fuzz.Checkpoint.save path ck;
  Fuzz.Checkpoint.save path { ck with Fuzz.Checkpoint.ck_next = 9 };
  Alcotest.(check bool) "tmp file removed by rename" false
    (Sys.file_exists (path ^ ".tmp"));
  let back = Fuzz.Checkpoint.load path in
  Sys.remove path;
  match back with
  | Some c ->
      Alcotest.(check int) "second save wins" 9 c.Fuzz.Checkpoint.ck_next
  | None -> Alcotest.fail "overwritten checkpoint did not load"

(* A checkpoint claiming the campaign already finished makes
   run_resilient return the saved counts without re-running anything. *)
let test_checkpoint_resume () =
  let campaign = Fuzz.campaign_for ~seed:9 ~programs:3 ~inputs:2 "arch" in
  let path = Filename.temp_file "protean_resume" ".json" in
  Fuzz.Checkpoint.save path
    {
      Fuzz.Checkpoint.ck_seed = 9;
      ck_programs = 3;
      ck_inputs = 2;
      ck_next = 3;
      ck_faulted = 0;
      ck_check_certs = false;
      ck_outcome = { (Fuzz.fresh_outcome ()) with Fuzz.tests = 5; skipped = 1 };
    };
  let r = Fuzz.run_resilient ~checkpoint:path campaign Defense.stt in
  Sys.remove path;
  Alcotest.(check bool) "resumed" true (r.Fuzz.r_resumed_from = Some 3);
  Alcotest.(check int) "saved tests restored" 5 r.Fuzz.r_outcome.Fuzz.tests;
  Alcotest.(check int) "saved skips restored" 1 r.Fuzz.r_outcome.Fuzz.skipped;
  Alcotest.(check int) "all programs counted done" 3 r.Fuzz.r_completed

(* A plain checkpoint keeps the version-1 layout byte for byte, so files
   written before the certificate fields existed still load (with no
   certificate verdict); a certified one carries the verdict. *)
let test_checkpoint_cert_fields () =
  let v1 =
    {|{"version":1,"seed":42,"programs":10,"inputs":5,"next":7,"tests":31,"skipped":4,"violations":2,"false_positives":1,"faulted":1,"example_seed":23799,"example_input":2}|}
  in
  Alcotest.(check string) "plain layout unchanged" v1 (Fuzz.Checkpoint.to_json ck);
  Alcotest.(check bool) "version-1 file loads" true
    (Fuzz.Checkpoint.of_json v1 = Some ck);
  let certified =
    {
      ck with
      Fuzz.Checkpoint.ck_check_certs = true;
      ck_outcome =
        {
          ck.Fuzz.Checkpoint.ck_outcome with
          Fuzz.certs_checked = 7;
          cert_claims = 120;
          cert_violations = 3;
          cert_example = Some "cert-violation: main pass=ct pc=1: \"rax\"";
        };
    }
  in
  Alcotest.(check bool) "certificate verdict round-trips" true
    (Fuzz.Checkpoint.of_json (Fuzz.Checkpoint.to_json certified) = Some certified)

(* A certified campaign resumed from its own finished checkpoint must
   report the certificate violations the first run found. *)
let test_resume_keeps_cert_verdict () =
  let campaign =
    {
      (Fuzz.campaign_for ~seed:1 ~programs:3 ~inputs:2 "ct") with
      Fuzz.check_certs = true;
      cert_fault = Some Fault_inject.CF_drop_prot;
    }
  in
  let path = Filename.temp_file "protean_certs" ".json" in
  Sys.remove path;
  let first = Fuzz.run_resilient ~checkpoint:path campaign Defense.prot_track in
  let again = Fuzz.run_resilient ~checkpoint:path campaign Defense.prot_track in
  Sys.remove path;
  let o = again.Fuzz.r_outcome in
  Alcotest.(check bool) "resumed at the end" true
    (again.Fuzz.r_resumed_from = Some 3);
  Alcotest.(check bool) "violations survive the resume" true
    (o.Fuzz.cert_violations > 0);
  Alcotest.(check bool) "same verdict as the first run" true
    (o = first.Fuzz.r_outcome)

(* A mismatched checkpoint (different campaign) is ignored. *)
let test_checkpoint_mismatch_ignored () =
  let campaign = Fuzz.campaign_for ~seed:10 ~programs:2 ~inputs:2 "arch" in
  let path = Filename.temp_file "protean_mismatch" ".json" in
  Fuzz.Checkpoint.save path { ck with Fuzz.Checkpoint.ck_seed = 11 };
  let r = Fuzz.run_resilient ~checkpoint:path campaign Defense.stt in
  Sys.remove path;
  Alcotest.(check bool) "not resumed" true (r.Fuzz.r_resumed_from = None)

(* --- campaign-level deadlock survival -------------------------------- *)

(* An architecturally terminating program whose hardware run exceeds the
   per-program cycle budget: thousands of data-dependent divisions. *)
let slow_program () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (i 1_000_000);
  Asm.mov c Reg.rbx (i 1);
  for _ = 1 to 4_000 do
    Asm.div c Reg.rax Reg.rax (r Reg.rbx)
  done;
  Asm.halt c;
  Asm.finish c

(* Acceptance scenario: a campaign containing a program that blows the
   watchdog budget completes the remaining programs and reports the
   skip. *)
let test_campaign_survives_timeout () =
  let campaign =
    {
      (Fuzz.campaign_for ~seed:3 ~programs:3 ~inputs:2 "arch") with
      Fuzz.timeout_cycles = Some 20_000;
    }
  in
  let slow = slow_program () in
  let program_of idx = if idx = 1 then Some slow else None in
  let r = Fuzz.run_resilient ~program_of campaign Defense.unsafe in
  Alcotest.(check int) "other programs completed" 2 r.Fuzz.r_completed;
  (match r.Fuzz.r_skipped with
  | [ s ] ->
      Alcotest.(check int) "skipped program index" 1 s.Fuzz.sk_index;
      Alcotest.(check int) "skipped program seed"
        (Fuzz.program_seed campaign 1) s.Fuzz.sk_seed;
      Alcotest.(check bool)
        (Printf.sprintf "skip reason names the watchdog: %s" s.Fuzz.sk_reason)
        true
        (contains ~sub:"budget-exhausted" s.Fuzz.sk_reason)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one skip, got %d" (List.length l)));
  Alcotest.(check bool) "remaining programs were tested" true
    (r.Fuzz.r_outcome.Fuzz.tests > 0)

(* --- one driver: a skipped program leaves no witness ------------------ *)

(* The unsafe baseline, except that its 3rd and 4th policy
   instantiations raise: program 0 of a one-program gadget campaign
   violates on its first input pair (instantiations 1-2), faults on its
   second (3) and faults again on retry (4), so it is skipped — and its
   half-run violation must not leave a counterexample behind. *)
let flaky_unsafe () =
  let calls = ref 0 in
  {
    Defense.unsafe with
    Defense.make =
      (fun () ->
        incr calls;
        if !calls = 3 || !calls = 4 then failwith "injected policy fault";
        Defense.unsafe.Defense.make ());
  }

let test_skipped_violation_has_no_witness () =
  let campaign =
    {
      Fuzz.default_campaign with
      Fuzz.programs = 1;
      inputs_per_program = 2;
      seed = 11;
      gen_klass = Gen.G_gadget;
      mode_of = Fuzz.arch_seq;
    }
  in
  (* Sanity: without the injected faults program 0 violates. *)
  let clean = Fuzz.run_resilient ~shrink:false campaign Defense.unsafe in
  Alcotest.(check bool) "program 0 violates" true
    (clean.Fuzz.r_outcome.Fuzz.example <> None);
  let serial = Fuzz.run_resilient campaign (flaky_unsafe ()) in
  let parallel =
    let d = flaky_unsafe () in
    Parallel.map ~jobs:2 [| (fun () -> Fuzz.test_cell campaign d 0) |]
    |> Array.to_list |> Fuzz.finish campaign d
  in
  let sharded =
    let d = flaky_unsafe () in
    let payload = Json.to_string (Fuzz.cell_to_json campaign (Fuzz.test_cell campaign d 0)) in
    Fuzz.finish campaign d [ Fuzz.cell_of_json 0 (Json.of_string payload) ]
  in
  List.iter
    (fun (driver, (r : Fuzz.report)) ->
      Alcotest.(check int) (driver ^ ": one skip") 1 (List.length r.Fuzz.r_skipped);
      Alcotest.(check bool) (driver ^ ": no example") true
        (r.Fuzz.r_outcome.Fuzz.example = None);
      Alcotest.(check bool) (driver ^ ": no counterexample") true
        (r.Fuzz.r_counterexample = None);
      Alcotest.(check bool) (driver ^ ": no attribution") true
        (r.Fuzz.r_attribution = None))
    [ ("serial", serial); ("-j 2", parallel); ("shard-style", sharded) ]

let tests =
  [
    Alcotest.test_case "invariants hold on all seed workloads" `Slow
      test_invariants_on_workloads;
    Alcotest.test_case "invariants hold at reset" `Quick
      test_invariants_initial;
    Alcotest.test_case "invariant mode parsing" `Quick test_mode_of_string;
    Alcotest.test_case "watchdog converts livelock into Commit_stall" `Quick
      test_watchdog_commit_stall;
    Alcotest.test_case "watchdog budget catches infinite loop" `Quick
      test_watchdog_budget;
    Alcotest.test_case "every injected fault is detected" `Slow
      test_fault_injection_matrix;
    Alcotest.test_case "shrinking preserves the violation" `Slow
      test_shrinking_preserves_violation;
    Alcotest.test_case "checkpoint JSON round-trips" `Quick
      test_checkpoint_json_roundtrip;
    Alcotest.test_case "checkpoint file round-trips" `Quick
      test_checkpoint_file_roundtrip;
    Alcotest.test_case "malformed checkpoint rejected" `Quick
      test_checkpoint_malformed;
    Alcotest.test_case "truncated checkpoint warns and is ignored" `Quick
      test_checkpoint_truncated_warns;
    Alcotest.test_case "checkpoint saves are atomic" `Quick
      test_checkpoint_save_atomic;
    Alcotest.test_case "campaign resumes from checkpoint" `Quick
      test_checkpoint_resume;
    Alcotest.test_case "mismatched checkpoint ignored" `Quick
      test_checkpoint_mismatch_ignored;
    Alcotest.test_case "checkpoint certificate fields" `Quick
      test_checkpoint_cert_fields;
    Alcotest.test_case "resumed certified campaign keeps its verdict" `Quick
      test_resume_keeps_cert_verdict;
    Alcotest.test_case "campaign survives a deadlocking program" `Slow
      test_campaign_survives_timeout;
    Alcotest.test_case "skipped violating program leaves no witness" `Quick
      test_skipped_violation_has_no_witness;
  ]
