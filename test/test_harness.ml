(* Harness tests: memoization, normalization sanity, geomean, the text
   renderers, and the cell executor's inputs and fault barrier. *)

module E = Protean_harness.Experiment
module Textplot = Protean_harness.Textplot
module Parallel = Protean_harness.Parallel
module Suite = Protean_workloads.Suite
module Config = Protean_ooo.Config
module Invariants = Protean_ooo.Invariants
module Protcc = Protean_protcc.Protcc
module Certify = Protean_protcc.Certify

let tiny =
  {
    Suite.name = "tiny";
    suite = "test";
    klass = Protean_isa.Program.Arch;
    kind = Suite.Single (fun () -> Helpers.store_load_sum 8);
  }

let test_normalized_unsafe_is_one () =
  let session = E.create_session () in
  Alcotest.(check (float 1e-9)) "unsafe/unsafe = 1" 1.0
    (E.normalized session tiny E.cfg_unsafe)

let test_memoization () =
  let session = E.create_session () in
  let r1 = E.run session (E.spec tiny E.cfg_unsafe) in
  let r2 = E.run session (E.spec tiny E.cfg_unsafe) in
  Alcotest.(check bool) "same object" true (r1 == r2)

let test_defense_never_free_lunch () =
  (* SPT-SB can never be faster than unsafe on a transmitter-containing
     benchmark (it only ever adds stalls). *)
  let session = E.create_session () in
  Alcotest.(check bool) "spt-sb >= 1" true
    (E.normalized session tiny E.cfg_spt_sb >= 1.0)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (E.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 3.0 (E.geomean [ 3.0 ])

let test_textplot_table () =
  let buf = Buffer.create 64 in
  let out = Format.formatter_of_buffer buf in
  Textplot.table ~out ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ];
  Format.pp_print_flush out ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "header present" true
    (String.length s > 0
    && String.index_opt s 'a' <> None
    && String.index_opt s '-' <> None)

let test_protcc_overhead_metric () =
  let session = E.create_session () in
  let size, runtime, _ =
    E.protcc_overhead session tiny Protean_protcc.Protcc.P_ct
  in
  Alcotest.(check bool) "code grows or stays" true (size >= 1.0);
  Alcotest.(check bool) "runtime sane" true (runtime > 0.5 && runtime < 3.0)

(* --- The cell executor ------------------------------------------------ *)

(* A benchmark whose build raises a refuted certificate, as a
   --check-certs compile does. *)
let cert_refuted =
  {
    Suite.name = "cert-refuted";
    suite = "test";
    klass = Protean_isa.Program.Arch;
    kind =
      Suite.Single
        (fun () ->
          raise
            (Certify.Cert_violation
               {
                 Certify.v_fname = "main";
                 v_style = "ct";
                 v_pc = 0;
                 v_reason = "injected";
               }));
  }

let faulted (r : E.run_result) = Float.is_nan r.E.cycles && r.E.stats = []

(* A refuted certificate is a nan cell, serially and on a -j grid, and
   the healthy cells of the grid still complete. *)
let test_cert_violation_nan_cell () =
  Alcotest.(check bool) "compute returns the faulted sentinel" true
    (faulted (E.compute (E.spec cert_refuted E.cfg_unsafe)));
  let session = E.create_session () in
  let cell b = E.run session (E.spec b E.cfg_unsafe) in
  Protean_harness.Campaign.grid (Helpers.campaign ~jobs:2 ()) ~src:"test"
    session (fun () -> List.iter (fun b -> ignore (cell b)) [ tiny; cert_refuted ]);
  Alcotest.(check bool) "-j 2: refuted cell is nan" true
    (faulted (cell cert_refuted));
  Alcotest.(check bool) "-j 2: healthy cell computed" true
    ((cell tiny).E.cycles > 0.)

(* Checking every invariant on every cycle observes without perturbing:
   the executor returns exactly the unchecked run's result, single-core
   on a ported core and on a 4-core lockstep run. *)
let test_execute_invariants_transparent () =
  List.iter
    (fun (name, spec) ->
      let plain = E.execute spec in
      let checked =
        E.execute
          ~opts:{ E.default_options with E.invariants = Some (Invariants.Fail, 1) }
          spec
      in
      Alcotest.(check bool) (name ^ ": identical run_result") true
        (compare plain checked = 0))
    [
      ( "bearssl/ct prot-delay test@w2",
        E.spec ~config:(E.core_of_name "test@w2") (Suite.find "bearssl")
          (E.protean_cfg `Delay Protcc.P_ct) );
      ( "swaptions.p stt",
        E.spec ~config:Config.test_core (Suite.find "swaptions.p") E.cfg_stt );
    ]

(* The audit is an option of the computation, not of the process: a
   ProtCC cell computed without it, then with [check_certs] and an
   [on_cert] counter, is audited the second time — the unaudited build
   in the frontend cache does not stand in for the audited one — and
   both runs agree on every result field. *)
let test_check_certs_option_audits () =
  let bench = { tiny with Suite.name = "tiny-audited" } in
  let spec = E.spec bench (E.protean_cfg `Track Protcc.P_ct) in
  let audited = ref 0 and refuted = ref 0 in
  let on_cert ~style:_ ~claims:_ ~violations =
    incr audited;
    refuted := !refuted + violations
  in
  let plain = E.compute spec in
  Alcotest.(check int) "default options audit nothing" 0 !audited;
  let checked =
    E.compute
      ~opts:{ E.default_options with E.check_certs = true; on_cert = Some on_cert }
      spec
  in
  Alcotest.(check bool) "check_certs audits the compile" true (!audited > 0);
  Alcotest.(check int) "no claim refuted" 0 !refuted;
  Alcotest.(check bool) "same result either way" true (compare plain checked = 0)

let test_name_parsers () =
  let rejects what f name =
    match f name with
    | _ -> Alcotest.fail (Printf.sprintf "%s %S accepted" what name)
    | exception Invalid_argument _ -> ()
  in
  List.iter (rejects "pass" E.pass_of_name) [ ""; "bogus"; "CT"; "rand" ];
  List.iter
    (rejects "core" E.core_of_name)
    [
      ""; "bogus"; "P"; "test@"; "test@w"; "test@wx"; "test@w0"; "test@4";
      "q@w4"; "p@w2@w2";
    ];
  Alcotest.(check bool) "multiclass" true
    (E.pass_of_name "multiclass" = (None, true));
  Alcotest.(check bool) "ct" true
    (E.pass_of_name "ct" = (Some Protcc.P_ct, false));
  Alcotest.(check string) "width suffix" "test-core@w4"
    (E.core_of_name "test@w4").Config.name;
  Alcotest.(check string) "e-core" "E-core" (E.core_of_name "e").Config.name

(* --- Parallel.map failure semantics ---------------------------------- *)

exception Boom of int

(* A raising task must not hang or starve the scheduler: every other
   task still runs to completion before the exception propagates. *)
let test_parallel_raise_does_not_hang () =
  let n = 16 in
  let ran = Array.make n false in
  let tasks =
    Array.init n (fun i () ->
        ran.(i) <- true;
        if i = 5 then raise (Boom i);
        i * i)
  in
  (match Parallel.map ~jobs:4 tasks with
  | _ -> Alcotest.fail "exception was swallowed"
  | exception Boom 5 -> ());
  Alcotest.(check bool) "all tasks ran despite the failure" true
    (Array.for_all Fun.id ran)

(* When several tasks raise, the exception of the lowest task index is
   the one re-raised — independent of scheduling — so parallel failures
   are as deterministic as serial ones. *)
let test_parallel_first_by_index_raised () =
  let tasks =
    Array.init 12 (fun i () ->
        if i = 3 || i = 7 || i = 11 then raise (Boom i);
        i)
  in
  (* Serial and parallel agree on which failure surfaces. *)
  (match Parallel.map ~jobs:1 tasks with
  | _ -> Alcotest.fail "serial: exception was swallowed"
  | exception Boom i -> Alcotest.(check int) "serial first-by-index" 3 i);
  match Parallel.map ~jobs:4 tasks with
  | _ -> Alcotest.fail "parallel: exception was swallowed"
  | exception Boom i -> Alcotest.(check int) "parallel first-by-index" 3 i

(* Non-failing results are still computed (visible via side effects):
   a failed cell costs exactly that cell, nothing downstream of it. *)
let test_parallel_survivors_computed () =
  let n = 10 in
  let acc = Array.make n (-1) in
  let tasks =
    Array.init n (fun i () ->
        if i = 0 then raise (Boom 0);
        acc.(i) <- 2 * i;
        2 * i)
  in
  (match Parallel.map ~jobs:3 tasks with
  | _ -> Alcotest.fail "exception was swallowed"
  | exception Boom 0 -> ());
  for i = 1 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "task %d result materialized" i)
      (2 * i) acc.(i)
  done;
  Alcotest.(check int) "failed task left no result" (-1) acc.(0)

let tests =
  [
    Alcotest.test_case "normalized unsafe = 1" `Quick test_normalized_unsafe_is_one;
    Alcotest.test_case "memoization" `Quick test_memoization;
    Alcotest.test_case "spt-sb never free" `Quick test_defense_never_free_lunch;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "textplot table" `Quick test_textplot_table;
    Alcotest.test_case "protcc overhead metric" `Quick test_protcc_overhead_metric;
    Alcotest.test_case "refuted certificate is a nan cell" `Quick
      test_cert_violation_nan_cell;
    Alcotest.test_case "invariant checking leaves run_result unchanged" `Slow
      test_execute_invariants_transparent;
    Alcotest.test_case "check_certs option audits a cached cell" `Quick
      test_check_certs_option_audits;
    Alcotest.test_case "pass and core names: unknown rejected" `Quick
      test_name_parsers;
    Alcotest.test_case "parallel raise does not hang" `Quick
      test_parallel_raise_does_not_hang;
    Alcotest.test_case "parallel re-raises first failure by index" `Quick
      test_parallel_first_by_index_raised;
    Alcotest.test_case "parallel failure spares other results" `Quick
      test_parallel_survivors_computed;
  ]
