(* Robustness layer tests: microarchitectural invariant checking,
   watchdog deadlock/livelock detection, fuzzer self-testing via fault
   injection, counterexample shrinking, and the campaign checkpoint
   every mode resumes from. *)

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
module Campaign = Protean_harness.Campaign
module Checkpoint = Protean_harness.Checkpoint
module Shard = Protean_harness.Shard
module E = Protean_harness.Experiment
module Json = Protean_telemetry.Json
module Tlog = Protean_telemetry.Log

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

let with_temp_file f =
  let path = Filename.temp_file "protean_ck" ".ck" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Open [path] over [cells] for [campaign], close it again, and return
   the resumed cells with the checkpoint warnings the open logged. *)
let reopen ?(campaign = "c") ~cells path =
  let warned = ref [] in
  Tlog.set_sink (fun line -> warned := line :: !warned);
  let ck, resumed =
    Fun.protect ~finally:Tlog.reset_sink (fun () ->
        Checkpoint.resume ~campaign ~cells path)
  in
  Checkpoint.close ck;
  (resumed, List.rev !warned)

let cells_of n =
  List.init n (fun i -> { Shard.c_id = i; c_key = "k" ^ string_of_int i })

(* Payloads in every shape the cell codecs produce — floats incl. nan,
   nested lists, skip reasons with newlines — come back as recorded. *)
let payloads =
  [
    (0, Json.Obj [ ("cycles", Json.Float 6276.); ("r", Json.Float nan) ]);
    (2, Json.Obj [ ("skip", Json.Str "line 1\nline \"2\"") ]);
    (3, Json.List [ Json.Int 1; Json.List [ Json.Float 0.1; Json.Null ] ]);
  ]

let test_checkpoint_file_roundtrip () =
  with_temp_file (fun path ->
      Sys.remove path;
      let ck, fresh = Checkpoint.resume ~campaign:"c" ~cells:(cells_of 4) path in
      Alcotest.(check bool) "a missing file resumes nothing" true (fresh = []);
      List.iter (fun (id, r) -> Checkpoint.record ck id r) payloads;
      Checkpoint.close ck;
      let resumed, warned = reopen ~cells:(cells_of 4) path in
      Alcotest.(check string) "payloads round-trip"
        (Json.to_string (Json.List (List.map snd payloads)))
        (Json.to_string (Json.List (List.map snd resumed)));
      Alcotest.(check (list int)) "under their ids" [ 0; 2; 3 ]
        (List.map fst resumed);
      Alcotest.(check (list string)) "no warning" [] warned)

(* A kill mid-append leaves a torn last line: it is dropped with exactly
   one warning naming the file, and the complete lines before it are
   kept.  An intact file reopens silently. *)
let test_checkpoint_truncated_warns () =
  with_temp_file (fun path ->
      let ck, _ = Checkpoint.resume ~campaign:"c" ~cells:(cells_of 4) path in
      List.iter (fun (id, r) -> Checkpoint.record ck id r) payloads;
      Checkpoint.close ck;
      let text = read_file path in
      write_file path (String.sub text 0 (String.length text - 7));
      let resumed, warned = reopen ~cells:(cells_of 4) path in
      Alcotest.(check (list int)) "complete lines kept" [ 0; 2 ]
        (List.map fst resumed);
      (match warned with
      | [ w ] ->
          Alcotest.(check bool) ("warning names the file: " ^ w) true
            (contains ~sub:path w)
      | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws));
      let _, warned = reopen ~cells:(cells_of 4) path in
      Alcotest.(check (list string)) "the rewritten file is intact" [] warned)

(* Opening rewrites the file through a temp file and a rename: none is
   left behind, and what is on disk is the header plus the kept cells. *)
let test_checkpoint_save_atomic () =
  with_temp_file (fun path ->
      let ck, _ = Checkpoint.resume ~campaign:"c" ~cells:(cells_of 4) path in
      List.iter (fun (id, r) -> Checkpoint.record ck id r) payloads;
      Checkpoint.close ck;
      let resumed, _ = reopen ~cells:(cells_of 3) path in
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check int) "header plus the two kept cells" 3
        (List.length (String.split_on_char '\n' (String.trim (read_file path))));
      Alcotest.(check (list int)) "kept cells" [ 0; 2 ] (List.map fst resumed))

(* A file of another campaign resumes nothing: it is ignored with a
   warning and rewritten as this campaign's. *)
let test_checkpoint_mismatch_ignored () =
  with_temp_file (fun path ->
      let ck, _ = Checkpoint.resume ~campaign:"other" ~cells:(cells_of 4) path in
      List.iter (fun (id, r) -> Checkpoint.record ck id r) payloads;
      Checkpoint.close ck;
      let resumed, warned = reopen ~cells:(cells_of 4) path in
      Alcotest.(check bool) "nothing resumed" true (resumed = []);
      Alcotest.(check int) "one warning" 1 (List.length warned);
      let resumed, warned = reopen ~cells:(cells_of 4) path in
      Alcotest.(check bool) "rewritten: still empty, now silent" true
        (resumed = [] && warned = []))

(* A file without a checkpoint header — here one written by the old
   per-campaign --resume format — is ignored the same way. *)
let test_checkpoint_malformed () =
  with_temp_file (fun path ->
      write_file path
        {|{"version":1,"seed":42,"programs":10,"inputs":5,"next":7,"tests":31}|};
      let resumed, warned = reopen ~cells:(cells_of 4) path in
      Alcotest.(check bool) "nothing resumed" true (resumed = []);
      Alcotest.(check int) "one warning" 1 (List.length warned);
      let _, warned = reopen ~cells:(cells_of 4) path in
      Alcotest.(check (list string)) "rewritten with a header" [] warned)

(* A checkpoint that cannot be written fails at open, before any cell
   of the campaign runs. *)
let test_checkpoint_unwritable () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir/x.ck" in
  match Checkpoint.resume ~campaign:"c" ~cells:(cells_of 2) path with
  | exception Sys_error _ -> ()
  | ck, _ ->
      Checkpoint.close ck;
      Alcotest.fail "an unwritable checkpoint opened"

(* The campaign identity is the argv a worker receives minus the flags
   that only place cells: two runs that differ only in -j, --shards,
   --connect or --checkpoint are one campaign, two that differ in an
   option a cell reads are not. *)
let test_campaign_identity () =
  let id args = Campaign.identity ~argv:(Array.of_list ("fuzz" :: args)) () in
  let base = id [ "-d"; "unsafe"; "-n"; "4" ] in
  List.iter
    (fun args ->
      Alcotest.(check string) (String.concat " " args) base (id args))
    [
      [ "-d"; "unsafe"; "-j"; "2"; "-n"; "4"; "--shards"; "2" ];
      [ "--checkpoint"; "a.ck"; "-d"; "unsafe"; "-n"; "4"; "--jobs=3"; "-j4" ];
      [ "-d"; "unsafe"; "--connect"; "h:1"; "-n"; "4"; "--worker" ];
      [ "-d"; "unsafe"; "-n"; "4"; "--listen"; "h:1"; "--campaign-token"; "t" ];
    ];
  List.iter
    (fun args ->
      Alcotest.(check bool) (String.concat " " args) true (base <> id args))
    [
      [ "-d"; "prot-track"; "-n"; "4" ];
      [ "-d"; "unsafe"; "-n"; "4"; "--check-certs" ];
      [ "-d"; "unsafe"; "-n"; "4"; "--metrics-out"; "m.prom" ];
    ]

(* [Campaign.run] in process keeps the checkpoint: a run interrupted by a
   failing cell keeps what it completed, the rerun computes only the
   rest, and its merge equals an uninterrupted run's — serially and on
   -j 2 domains. *)
let test_checkpoint_resume () =
  List.iter
    (fun jobs ->
      with_temp_file (fun path ->
          let lock = Mutex.create () and computed = Hashtbl.create 8 in
          let interrupted = ref false in
          let job () =
            {
              Campaign.cells = cells_of 6;
              compute =
                (fun key ->
                  if !interrupted && key = "k3" then raise Exit;
                  Mutex.protect lock (fun () ->
                      Hashtbl.replace computed key
                        (1 + Option.value ~default:0 (Hashtbl.find_opt computed key)));
                  Json.Str ("v" ^ key));
              merge = Fun.id;
            }
          in
          let run ?checkpoint () =
            Campaign.run ~opts:E.default_options ~src:"test"
              ~live:(fun () -> "")
              ~job
              (Helpers.campaign ~jobs ?checkpoint ())
          in
          let reference = run () in
          Hashtbl.reset computed;
          interrupted := true;
          (match run ~checkpoint:path () with
          | exception Exit -> ()
          | _ -> Alcotest.fail "the first run was to be interrupted");
          interrupted := false;
          let resumed = run ~checkpoint:path () in
          let label = Printf.sprintf "-j %d: " jobs in
          Alcotest.(check (list (pair string int)))
            (label ^ "each cell computed once across both runs")
            (List.map (fun (c : Shard.cell) -> (c.Shard.c_key, 1)) (cells_of 6))
            (List.sort compare (List.of_seq (Hashtbl.to_seq computed)));
          Alcotest.(check bool) (label ^ "resumed merge == uninterrupted") true
            (resumed = reference);
          Alcotest.(check bool) (label ^ "a finished checkpoint merges the same")
            true
            (run ~checkpoint:path () = reference && Hashtbl.length computed = 6)))
    [ 1; 2 ]

(* A fuzz campaign resumed after [k] programs: cells 0..k-1 go through
   the checkpoint and the cell codec, the rest are computed fresh, and
   [Fuzz.finish] merges them. *)
let resumed_report campaign defense ~k =
  with_temp_file (fun path ->
      let cells =
        List.init campaign.Fuzz.programs (fun i ->
            { Shard.c_id = i; c_key = string_of_int i })
      in
      let ck, _ = Checkpoint.resume ~campaign:"fuzz" ~cells path in
      for i = 0 to k - 1 do
        Checkpoint.record ck i
          (Fuzz.cell_to_json campaign (Fuzz.test_cell campaign defense i))
      done;
      Checkpoint.close ck;
      let resumed, _ = reopen ~campaign:"fuzz" ~cells path in
      Fuzz.finish campaign defense
        (List.map (fun (i, j) -> Fuzz.cell_of_json i j) resumed
        @ List.init (campaign.Fuzz.programs - k) (fun j ->
              Fuzz.test_cell campaign defense (k + j))))

let same_report label (a : Fuzz.report) (b : Fuzz.report) =
  Alcotest.(check bool) (label ^ ": outcome") true (a.Fuzz.r_outcome = b.Fuzz.r_outcome);
  Alcotest.(check bool) (label ^ ": counterexample") true
    (a.Fuzz.r_counterexample = b.Fuzz.r_counterexample);
  Alcotest.(check bool) (label ^ ": attribution") true
    (a.Fuzz.r_attribution = b.Fuzz.r_attribution)

(* A certified campaign resumed from its checkpoint reports the
   certificate violations the interrupted run had found. *)
let test_resume_keeps_cert_verdict () =
  let campaign =
    {
      (Fuzz.campaign_for ~seed:1 ~programs:3 ~inputs:2 "ct") with
      Fuzz.check_certs = true;
      cert_fault = Some Fault_inject.CF_drop_prot;
    }
  in
  let full = Fuzz.run_resilient campaign Defense.prot_track in
  let resumed = resumed_report campaign Defense.prot_track ~k:2 in
  Alcotest.(check bool) "violations survive the resume" true
    (resumed.Fuzz.r_outcome.Fuzz.cert_violations > 0);
  same_report "resumed == uninterrupted" full resumed

(* A campaign resumed after its first violation replays it: the same
   shrunk counterexample and leak attribution as the run that found it. *)
let test_resume_keeps_witness () =
  let campaign =
    {
      (Fuzz.campaign_for ~programs:4 ~inputs:2 "arch") with
      Fuzz.gen_klass = Gen.G_gadget;
    }
  in
  let full = Fuzz.run_resilient campaign Defense.unsafe in
  Alcotest.(check bool) "the campaign finds a witness" true
    (full.Fuzz.r_counterexample <> None && full.Fuzz.r_attribution <> None);
  same_report "resumed == uninterrupted" full
    (resumed_report campaign Defense.unsafe ~k:2)

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
    Alcotest.test_case "campaign identity ignores where cells run" `Quick
      test_campaign_identity;
    Alcotest.test_case "unwritable checkpoint fails before any cell" `Quick
      test_checkpoint_unwritable;
    Alcotest.test_case "resumed certified campaign keeps its verdict" `Quick
      test_resume_keeps_cert_verdict;
    Alcotest.test_case "resumed campaign keeps its witness" `Quick
      test_resume_keeps_witness;
    Alcotest.test_case "campaign survives a deadlocking program" `Slow
      test_campaign_survives_timeout;
    Alcotest.test_case "skipped violating program leaves no witness" `Quick
      test_skipped_violation_has_no_witness;
  ]
