(* Golden determinism suite: the stage-module pipeline must reproduce
   the seed pipeline's recorded observables bit-for-bit — cycle counts,
   committed/squash counters and the MD5 digest of the full
   attacker-visible trace — for every corpus cell, both serially and
   when the cells run on a parallel grid.

   The expected file was recorded from the pre-refactor pipeline
   (`protean-tables golden`); a mismatch means the refactor changed
   simulated behavior, not that the expectation moved. *)

module Golden = Protean_harness.Golden
module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Json = Protean_harness.Shard.Json
module E = Protean_harness.Experiment

(* The recorded expectations were produced by the spinning machine;
   event-driven skip-ahead is the optimization under test, so the
   corpus must be byte-identical with it on (the default) *and* on the
   paranoid machine, which spins and cross-checks its scheduler indexes
   every cycle.  (test_hotloop runs the paranoid corpus serially.) *)
let paranoid = { E.default_options with E.paranoid_sched = true }

(* `dune runtest` executes in _build/default/test (where the (deps ...)
   copy lives); `dune exec test/test_main.exe` runs from the project
   root — accept both. *)
let expected_file base =
  List.find Sys.file_exists
    [
      base;
      Filename.concat "test" base;
      Filename.concat (Filename.dirname Sys.executable_name) base;
    ]

let read_expected base =
  let ic = open_in (expected_file base) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let check_lines ?(base = "golden_pipeline.expected") name actual =
  let expected = read_expected base in
  Alcotest.(check int)
    (name ^ ": corpus size") (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check string) (Printf.sprintf "%s: cell %d" name i) e a)
    (List.combine expected actual)

let test_serial () = check_lines "serial" (Golden.lines ())

let test_parallel () = check_lines "parallel -j 4" (Golden.lines ~jobs:4 ())

let test_parallel_paranoid () =
  check_lines "-j 4 --paranoid-sched" (Golden.lines ~jobs:4 ~opts:paranoid ())

(* --- width corpus ------------------------------------------------------ *)

let check_width name actual =
  check_lines ~base:"golden_width.expected" name actual

let test_width_serial () = check_width "width serial" (Golden.width_lines ())

let test_width_parallel () =
  check_width "width -j 4" (Golden.width_lines ~jobs:4 ())

(* Two crash-isolated shard workers (in-process domains running the real
   [Shard.serve] loop over pipes) compute the width corpus by cell key;
   the supervised merge must be byte-identical to the serial lines. *)
let run_width_shards ?opts name =
  let keys = Golden.width_keys () in
  let cells = List.mapi (fun i k -> { Shard.c_id = i; c_key = k }) keys in
  let compute k = Json.Str (Golden.run_width_key ?opts k) in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~compute ()
  in
  let config =
    {
      Supervisor.default_config with
      Supervisor.shards = 2;
      max_attempts = 2;
      heartbeat = 60.0;
      wall = 300.0;
      backoff = 0.01;
    }
  in
  let out =
    Supervisor.run ~spawn config ~worker_argv:[||]
      ~fallback:(fun _ -> Alcotest.fail "width shard fell back in-process")
      cells
  in
  let actual =
    List.map
      (function
        | _, Supervisor.O_ok (Json.Str line) -> line
        | id, _ -> Alcotest.fail (Printf.sprintf "width cell %d faulted" id))
      out
  in
  check_width name actual

let test_width_shards () = run_width_shards "width --shards 2"

(* The paranoid width corpus reaches the structural invariants the plain
   corpus cannot: port binding/oversubscription and the writeback-budget
   bound only fire on [Config.ports] configs. *)
let test_width_shards_paranoid () =
  run_width_shards ~opts:paranoid "width --shards 2 --paranoid-sched"

let tests =
  [
    Alcotest.test_case "cycle-exact (serial)" `Slow test_serial;
    Alcotest.test_case "cycle-exact (-j 4)" `Slow test_parallel;
    Alcotest.test_case "cycle-exact (-j 4, --paranoid-sched)" `Slow
      test_parallel_paranoid;
    Alcotest.test_case "width sweep cycle-exact (serial)" `Slow
      test_width_serial;
    Alcotest.test_case "width sweep cycle-exact (-j 4)" `Slow
      test_width_parallel;
    Alcotest.test_case "width sweep cycle-exact (--shards 2)" `Slow
      test_width_shards;
    Alcotest.test_case "width sweep cycle-exact (--shards 2, --paranoid-sched)"
      `Slow test_width_shards_paranoid;
  ]
