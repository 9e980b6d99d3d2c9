(* Shard-supervisor tests: the JSON wire format, the frame codec, lease
   cutting, the checkpoint of a supervised campaign, the lifecycle
   event bus, and the supervision state machine itself — driven through the [?spawn]
   transport hook with in-process (domain-backed) fake workers, so
   crash / stall / poison scenarios run deterministically without
   exec'ing real subprocesses. *)

module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Json = Protean_harness.Shard.Json
module E = Protean_harness.Experiment
module Campaign = Protean_harness.Campaign
module Checkpoint = Protean_harness.Checkpoint
module Tables = Protean_harness.Tables
module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Protcc = Protean_protcc.Protcc
module Observer = Protean_arch.Observer
module Defense = Protean_defense.Defense

(* --- JSON round-trips -------------------------------------------------- *)

let roundtrip j = Json.of_string (Json.to_string j)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-123456789);
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ back\nnew\ttab";
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("xs", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" (Json.to_string j))
        true
        (roundtrip j = j))
    cases

(* Floats must survive the wire bit-exactly: the supervised merge is
   only byte-identical to the serial run if %.17g loses nothing. *)
let test_json_float_exact () =
  let floats = [ 0.1; 1.0 /. 3.0; 1e-300; -2.5e17; 0.0; 1.0000000000000002 ] in
  List.iter
    (fun f ->
      match roundtrip (Json.Float f) with
      | Json.Float g ->
          Alcotest.(check bool)
            (Printf.sprintf "float %h exact" f)
            true
            (Int64.bits_of_float f = Int64.bits_of_float g)
      | Json.Int i ->
          (* Integral floats may come back as ints; the value is what
             must be preserved. *)
          Alcotest.(check (float 0.0)) "integral float" f (float_of_int i)
      | _ -> Alcotest.fail "float did not parse back as a number")
    floats;
  (match roundtrip (Json.Float Float.nan) with
  | Json.Float g -> Alcotest.(check bool) "nan survives" true (Float.is_nan g)
  | _ -> Alcotest.fail "nan did not round-trip");
  match (roundtrip (Json.Float Float.infinity),
         roundtrip (Json.Float Float.neg_infinity)) with
  | Json.Float a, Json.Float b ->
      Alcotest.(check bool) "inf survives" true (a = Float.infinity);
      Alcotest.(check bool) "-inf survives" true (b = Float.neg_infinity)
  | _ -> Alcotest.fail "infinities did not round-trip"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | _ -> Alcotest.fail (Printf.sprintf "accepted garbage: %s" s)
      | exception Json.Parse _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "\"unterminated"; "{}junk" ]

(* --- frame codec ------------------------------------------------------- *)

let sample_frames =
  [
    Shard.F_work
      [ { Shard.c_id = 0; c_key = "milc/stt" }; { Shard.c_id = 7; c_key = "lbm" } ];
    Shard.F_hb 3;
    Shard.F_result (7, Json.Obj [ ("cycles", Json.Int 123) ]);
    Shard.F_cellfault { fc_id = 2; fc_reason = "watchdog: commit stall" };
    Shard.F_log "[prewarm] 3/9 cells";
    Shard.F_done;
    Shard.F_exit;
  ]

(* Feed the concatenated encoding through the incremental decoder one
   byte at a time: frame boundaries never align with reads in practice. *)
let test_frame_decoder_byte_at_a_time () =
  let bytes =
    String.concat ""
      (List.map (fun f -> Bytes.to_string (Shard.encode_frame f)) sample_frames)
  in
  let dec = Shard.Decoder.create () in
  let out = ref [] in
  String.iter
    (fun c ->
      Shard.Decoder.feed dec (Bytes.make 1 c) 0 1;
      let rec pop () =
        match Shard.Decoder.next dec with
        | Some f ->
            out := f :: !out;
            pop ()
        | None -> ()
      in
      pop ())
    bytes;
  Alcotest.(check int) "all frames decoded" (List.length sample_frames)
    (List.length !out);
  Alcotest.(check bool) "frames identical" true (List.rev !out = sample_frames);
  Alcotest.(check int) "no leftover bytes" 0 (Shard.Decoder.pending_bytes dec)

let test_frame_decoder_truncation_pending () =
  let b = Shard.encode_frame (Shard.F_hb 1) in
  let dec = Shard.Decoder.create () in
  Shard.Decoder.feed dec b 0 (Bytes.length b - 2);
  Alcotest.(check bool) "incomplete frame not produced" true
    (Shard.Decoder.next dec = None);
  Alcotest.(check bool) "truncation visible" true
    (Shard.Decoder.pending_bytes dec > 0)

(* --- lease cutting ------------------------------------------------------ *)

let cells_of n = List.init n (fun i -> { Shard.c_id = i; c_key = "k" ^ string_of_int i })

(* The index of cell key "k<i>". *)
let index key = int_of_string (String.sub key 1 (String.length key - 1))

(* [n] cells cut into leases of [size] consecutive cells. *)
let chunks size n =
  Campaign.leases
    ~group:(fun key -> string_of_int (index key / size))
    (cells_of n)

let ids leases = List.map (List.map (fun c -> c.Shard.c_id)) leases

(* Cells k0..k(n-1) in consecutive groups of [sizes]: [n] and the group
   of a cell key. *)
let grouped sizes =
  let group_of =
    Array.of_list
      (List.concat (List.mapi (fun g k -> List.init k (Fun.const g)) sizes))
  in
  let group key = string_of_int group_of.(index key) in
  (Array.length group_of, group)

(* Every cell lands in exactly one lease, in order, and a lease is one
   whole group (kept contiguous, as the grid sorts them), whatever a
   resume removed.  A fuzz grid groups [-j] consecutive programs of one
   row. *)
let test_lease_cutting () =
  List.iter
    (fun sizes ->
      let n, group = grouped sizes in
      List.iter
        (fun resumed ->
          let cells =
            List.filter
              (fun c -> not (List.mem c.Shard.c_id resumed))
              (cells_of n)
          in
          let leases = Campaign.leases ~group cells in
          let groups =
            List.map
              (fun l ->
                List.sort_uniq compare
                  (List.map (fun c -> group c.Shard.c_key) l))
              leases
          in
          let label =
            Printf.sprintf "%d cells in %d groups, %d resumed" n
              (List.length sizes) (List.length resumed)
          in
          Alcotest.(check (list int))
            (label ^ ": every cell once, in order")
            (List.map (fun c -> c.Shard.c_id) cells)
            (List.concat (ids leases));
          Alcotest.(check bool) (label ^ ": one group a lease") true
            (List.for_all (fun g -> List.length g = 1) groups);
          let gs = List.concat groups in
          Alcotest.(check bool) (label ^ ": no group split") true
            (List.length (List.sort_uniq compare gs) = List.length gs))
        [ []; [ 0 ]; [ 1; 3 ] ])
    [ [ 2; 1; 3; 2 ]; [ 1; 1; 1 ]; [ 5 ]; [] ];
  let _, group = grouped [ 2; 1; 3; 2 ] in
  Alcotest.(check (list (list int))) "one lease per group"
    [ [ 0; 1 ]; [ 2 ]; [ 3; 4; 5 ]; [ 6; 7 ] ]
    (ids (Campaign.leases ~group (cells_of 8)));
  let row n =
    ({ Fuzz.default_campaign with Fuzz.programs = n }, Defense.unsafe)
  in
  let job = Campaign.fuzz (Helpers.campaign ~jobs:3 ()) [ row 8; row 4 ] in
  Alcotest.(check (list (list int)))
    "fuzz grid: -j 3 programs of one row a lease"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7 ]; [ 8; 9; 10 ]; [ 11 ] ]
    (ids (Campaign.leases ~group:job.Campaign.group job.Campaign.cells))

(* --- checkpoints ------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "protean_ck" ".ck" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* A reopened checkpoint resumes the recorded cells under the ids of the
   current cell list, and drops — for good — an entry whose key the
   campaign no longer has. *)
let test_checkpoint_roundtrip_and_staleness () =
  with_temp_file (fun path ->
      let cell id key = { Shard.c_id = id; c_key = key } in
      let reopen cells =
        let ck, resumed = Checkpoint.resume ~campaign:"c" ~cells path in
        Checkpoint.close ck;
        resumed
      in
      let ck, resumed = Checkpoint.resume ~campaign:"c" ~cells:(cells_of 3) path in
      Alcotest.(check bool) "a new file resumes nothing" true (resumed = []);
      Checkpoint.record ck 0 (Json.Int 10);
      Checkpoint.record ck 2 (Json.Int 12);
      Checkpoint.close ck;
      Alcotest.(check bool) "recorded cells resume" true
        (reopen (cells_of 3) = [ (0, Json.Int 10); (2, Json.Int 12) ]);
      (* The grid changed: k0 is gone and k2 is now cell 0. *)
      Alcotest.(check bool) "ids follow the current list, stale key dropped"
        true
        (reopen [ cell 0 "k2"; cell 1 "k3" ] = [ (0, Json.Int 12) ]);
      Alcotest.(check bool) "the stale entry is gone from the file" true
        (reopen (cells_of 3) = [ (2, Json.Int 12) ]))

(* --- event bus --------------------------------------------------------- *)

let test_bus_order_and_unsubscribe () =
  let bus = Supervisor.create_bus () in
  let trace = ref [] in
  Supervisor.subscribe bus ~name:"a" (fun _ -> trace := "a" :: !trace);
  Supervisor.subscribe bus ~name:"b" (fun _ -> trace := "b" :: !trace);
  Supervisor.emit bus (Supervisor.Fallback { reason = "test" });
  Alcotest.(check (list string)) "registration order" [ "a"; "b" ]
    (List.rev !trace);
  Supervisor.unsubscribe bus "a";
  trace := [];
  Supervisor.emit bus (Supervisor.Merged { cells = 0; faults = 0 });
  Alcotest.(check (list string)) "unsubscribed handler gone" [ "b" ]
    (List.rev !trace)

(* --- fake-worker transports -------------------------------------------- *)

(* Serve lease after lease, as a worker does: each work order's cells go
   to [serve] until the supervisor says exit. *)
let each_lease serve in_r =
  let rec loop () =
    match Shard.read_frame in_r with
    | Some (Shard.F_work cells) ->
        serve cells;
        loop ()
    | _ -> ()
  in
  loop ()

(* Crash after streaming the first result: the classic mid-shard death,
   within the worker's first lease.  Reports a signal status so the
   supervisor treats it as a failure. *)
let crash_after_first compute in_r out_w =
  (match Shard.read_frame in_r with
  | Some (Shard.F_work (c :: _)) ->
      Shard.write_frame out_w (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key))
  | _ -> ());
  raise Exit

(* Die instantly — before streaming anything — on a lease that contains
   [poison]; serve every other lease normally.  Streaming no partial
   results forces the supervisor to isolate the bad cell by bisection
   alone (a worker that streams results narrows the shard for free and
   never needs to bisect). *)
let crash_on_cell ~poison compute in_r out_w =
  each_lease
    (fun cells ->
      if List.exists (fun c -> c.Shard.c_id = poison) cells then raise Exit;
      List.iter
        (fun c ->
          Shard.write_frame out_w
            (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)))
        cells;
      Shard.write_frame out_w Shard.F_done)
    in_r

(* Read the work order, then fall silent without ever writing a frame —
   the shape of a livelocked worker. *)
let stall ~secs in_r _out_w =
  ignore (Shard.read_frame in_r);
  Unix.sleepf secs;
  raise Exit

let compute key = Json.Obj [ ("v", Json.Str ("computed:" ^ key)) ]

let expected_ok n =
  List.init n (fun i ->
      (i, Supervisor.O_ok (Json.Obj [ ("v", Json.Str (Printf.sprintf "computed:k%d" i)) ])))

let record_events bus =
  let events = ref [] in
  Supervisor.subscribe bus ~name:"record" (fun e -> events := e :: !events);
  fun () -> List.rev !events

let no_fallback _ = Alcotest.fail "fallback must not run in this scenario"

(* Run [f] with process spawning vetoed (PROTEAN_NO_SPAWN).  The variable
   cannot be unset portably; "" reads as unset. *)
let with_no_spawn f =
  let saved = Option.value (Sys.getenv_opt "PROTEAN_NO_SPAWN") ~default:"" in
  Unix.putenv "PROTEAN_NO_SPAWN" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "PROTEAN_NO_SPAWN" saved) f

let config ?(shards = 2) ?(max_attempts = 2) () =
  {
    Supervisor.default_config with
    Supervisor.shards;
    max_attempts;
    heartbeat = 30.0;
    wall = 60.0;
    backoff = 0.01 (* keep retry latency out of the test suite *);
  }

let count p events = List.length (List.filter p events)
let is_spawn = function Supervisor.Spawn _ -> true | _ -> false
let is_grant = function Supervisor.Lease_granted _ -> true | _ -> false

(* Happy path: two domain-backed workers serve the real worker loop;
   results come back complete and in cell order. *)
let test_supervised_happy_path () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~compute ()
  in
  let out =
    Supervisor.run ~bus ~spawn (config ()) ~worker_argv:[||]
      ~fallback:no_fallback (chunks 1 5)
  in
  Alcotest.(check bool) "all cells ok, in id order" true (out = expected_ok 5);
  Alcotest.(check int) "one spawn per slot" 2 (count is_spawn (events ()));
  Alcotest.(check bool) "merged event closes the run" true
    (List.exists
       (function Supervisor.Merged { cells = 5; faults = 0 } -> true | _ -> false)
       (events ()))

(* Leases go to whichever member is idle: while the first spawn sits on
   a slow cell, the second computes every other cell, lease after lease
   (a split into one contiguous range per spawn would cap it at half).
   Each slot spawns once, and every lease is granted once. *)
let test_supervised_balance () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let lock = Mutex.create () and computed = ref [] in
  let spawn ~shard ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport
      ~compute:(fun key ->
        if key = "k0" then Unix.sleepf 1.0;
        Mutex.protect lock (fun () -> computed := (shard, key) :: !computed);
        compute key)
      ()
  in
  let leases = chunks 1 6 in
  let out =
    Supervisor.run ~bus ~spawn (config ()) ~worker_argv:[||]
      ~fallback:no_fallback leases
  in
  Alcotest.(check bool) "all cells ok, in id order" true (out = expected_ok 6);
  Alcotest.(check (list string)) "the second member computes every other cell"
    [ "k1"; "k2"; "k3"; "k4"; "k5" ]
    (List.sort compare
       (List.filter_map
          (fun (slot, key) -> if slot = 1 then Some key else None)
          !computed));
  Alcotest.(check int) "one spawn per slot" 2 (count is_spawn (events ()));
  Alcotest.(check int) "every lease granted once" (List.length leases)
    (count is_grant (events ()))

(* A spawn's slot outlives it: a member killed mid-lease is replaced in
   the same slot as attempt 2, and only its unfinished cells are
   requeued.  A one-shot worker fault arms slot 0's first spawn alone; a
   persistent one (poison) arms every spawn. *)
let test_supervised_slots_and_fault_arming () =
  let module FI = Protean_defense.Fault_inject in
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawns = ref [] in
  let slow key =
    Unix.sleepf 0.2;
    compute key
  in
  let spawn ~shard ~attempt ~env_fault =
    spawns := (shard, attempt, env_fault) :: !spawns;
    match env_fault with
    | Some _ ->
        Helpers.domain_transport ~misbehave:(crash_after_first slow)
          ~compute:slow ()
    | None -> Helpers.domain_transport ~compute:slow ()
  in
  let out =
    Supervisor.run ~bus ~spawn
      { (config ()) with Supervisor.inject = Some FI.WF_kill }
      ~worker_argv:[||] ~fallback:no_fallback (chunks 2 6)
  in
  Alcotest.(check bool) "identical to serial despite the kill" true
    (out = expected_ok 6);
  Alcotest.(check (list (triple int int (option string))))
    "slot 0 respawned as attempt 2; only its first spawn armed"
    [ (0, 1, Some "worker-kill"); (1, 1, None); (0, 2, None) ]
    (List.rev !spawns);
  Alcotest.(check bool) "only the unfinished cell requeued" true
    (List.exists
       (function
         | Supervisor.Lease_granted { shard = 0; attempt = 2; cells = 1; _ } ->
             true
         | _ -> false)
       (events ()));
  spawns := [];
  let out =
    Supervisor.run ~spawn:(fun ~shard ~attempt ~env_fault ->
        spawns := (shard, attempt, env_fault) :: !spawns;
        Helpers.domain_transport ~misbehave:(crash_on_cell ~poison:0 compute)
          ~compute ())
      { (config ()) with Supervisor.inject = Some (FI.WF_poison 0) }
      ~worker_argv:[||] ~fallback:no_fallback (chunks 2 4)
  in
  Alcotest.(check bool) "the poisoned cell faults, the rest complete" true
    (match out with
    | (0, Supervisor.O_fault _) :: rest -> rest = List.tl (expected_ok 4)
    | _ -> false);
  Alcotest.(check bool) "crashed members were replaced" true
    (List.length !spawns > 2);
  Alcotest.(check bool) "every spawn armed with the poison" true
    (List.for_all (fun (_, _, f) -> f = Some "worker-poison:0") !spawns)

(* A worker that dies mid-shard is retried; streamed results are kept
   and the final merge is unaffected. *)
let test_supervised_crash_then_recover () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard:_ ~attempt ~env_fault:_ =
    if attempt = 1 then
      Helpers.domain_transport ~misbehave:(crash_after_first compute)
        ~compute ()
    else Helpers.domain_transport ~compute ()
  in
  let out =
    Supervisor.run ~bus ~spawn
      (config ~shards:1 ())
      ~worker_argv:[||] ~fallback:no_fallback [ cells_of 4 ]
  in
  Alcotest.(check bool) "identical to serial despite the crash" true
    (out = expected_ok 4);
  Alcotest.(check bool) "a retry was scheduled" true
    (List.exists
       (function Supervisor.Retry { attempt = 2; _ } -> true | _ -> false)
       (events ()))

(* A single poisoned cell is bisected out and reported as a structured
   fault; every other cell still completes. *)
let test_supervised_poisoned_cell_bisected () =
  let poison = 2 in
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~misbehave:(crash_on_cell ~poison compute)
      ~compute ()
  in
  let out =
    Supervisor.run ~bus ~spawn (config ()) ~worker_argv:[||]
      ~fallback:no_fallback (chunks 3 6)
  in
  List.iter
    (fun (id, o) ->
      if id = poison then
        match o with
        | Supervisor.O_fault { f_key; f_attempts; _ } ->
            Alcotest.(check string) "fault names the cell key" "k2" f_key;
            Alcotest.(check bool) "attempts exhausted" true (f_attempts >= 2)
        | Supervisor.O_ok _ -> Alcotest.fail "poisoned cell reported ok"
      else
        Alcotest.(check bool)
          (Printf.sprintf "cell %d completed" id)
          true
          (o = List.assoc id (expected_ok 6)))
    out;
  Alcotest.(check bool) "bisection happened" true
    (List.exists
       (function Supervisor.Bisect _ -> true | _ -> false)
       (events ()));
  Alcotest.(check bool) "poison event names the cell" true
    (List.exists
       (function
         | Supervisor.Poisoned { cell; key = "k2"; _ } -> cell = poison
         | _ -> false)
       (events ()))

(* [on_result] sees each result a worker delivers exactly once — a
   worker here streams every result twice — and never a poisoned cell,
   so a checkpoint built from it retries that cell on resume. *)
let test_supervised_on_result_once () =
  let poison = 2 in
  let twice in_r out_w =
    each_lease
      (fun cells ->
        if List.exists (fun c -> c.Shard.c_id = poison) cells then raise Exit;
        List.iter
          (fun c ->
            let f = Shard.F_result (c.Shard.c_id, compute c.Shard.c_key) in
            Shard.write_frame out_w f;
            Shard.write_frame out_w f)
          cells;
        Shard.write_frame out_w Shard.F_done)
      in_r
  in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~misbehave:twice ~compute ()
  in
  let seen = ref [] in
  let out =
    Supervisor.run ~spawn (config ()) ~worker_argv:[||] ~fallback:no_fallback
      ~on_result:(fun id r -> seen := (id, r) :: !seen)
      (chunks 3 6)
  in
  Alcotest.(check (list int)) "each delivered cell once, the poisoned one never"
    [ 0; 1; 3; 4; 5 ]
    (List.sort compare (List.map fst !seen));
  List.iter
    (fun (id, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d: the merged payload" id)
        true
        (List.assoc id out = Supervisor.O_ok r))
    !seen

(* A silent worker trips the heartbeat deadline, is killed, and the
   retry completes the shard. *)
let test_supervised_heartbeat_kill_recovers () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard:_ ~attempt ~env_fault:_ =
    if attempt = 1 then
      Helpers.domain_transport ~misbehave:(stall ~secs:1.5) ~compute ()
    else Helpers.domain_transport ~compute ()
  in
  let cfg = { (config ~shards:1 ()) with Supervisor.heartbeat = 0.2 } in
  let out =
    Supervisor.run ~bus ~spawn cfg ~worker_argv:[||] ~fallback:no_fallback
      [ cells_of 3 ]
  in
  Alcotest.(check bool) "recovered after the kill" true (out = expected_ok 3);
  Alcotest.(check bool) "kill cites the heartbeat deadline" true
    (List.exists
       (function
         | Supervisor.Kill { reason; _ } ->
             String.length reason >= 9 && String.sub reason 0 9 = "heartbeat"
         | _ -> false)
       (events ()))

(* A worker that reports a cell fault over the protocol (the in-process
   exception barrier caught it) poisons just that cell, with no retry:
   the worker itself is healthy. *)
let test_supervised_cellfault_is_final () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let faulty key =
    if key = "k1" then raise (Failure "simulated Sim_fault") else compute key
  in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~compute:faulty ()
  in
  let out =
    Supervisor.run ~bus ~spawn
      (config ~shards:1 ())
      ~worker_argv:[||] ~fallback:no_fallback [ cells_of 3 ]
  in
  (match List.assoc 1 out with
  | Supervisor.O_fault { f_reason; _ } ->
      Alcotest.(check bool) "reason forwarded" true
        (String.length f_reason > 0)
  | Supervisor.O_ok _ -> Alcotest.fail "faulted cell reported ok");
  Alcotest.(check bool) "other cells unaffected" true
    (List.assoc 0 out = List.assoc 0 (expected_ok 3)
    && List.assoc 2 out = List.assoc 2 (expected_ok 3));
  Alcotest.(check bool) "no retry for an in-worker fault" true
    (not
       (List.exists
          (function Supervisor.Retry _ -> true | _ -> false)
          (events ())))

(* Exec failure degrades to the in-process fallback for the whole batch. *)
let test_supervised_spawn_failure_falls_back () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ = failwith "exec ENOENT" in
  let fallback cells =
    List.map (fun c -> (c.Shard.c_id, compute c.Shard.c_key)) cells
  in
  let out =
    Supervisor.run ~bus ~spawn (config ()) ~worker_argv:[||] ~fallback
      [ cells_of 4 ]
  in
  Alcotest.(check bool) "fallback computed everything" true
    (out = expected_ok 4);
  Alcotest.(check bool) "fallback event emitted" true
    (List.exists
       (function Supervisor.Fallback _ -> true | _ -> false)
       (events ()))

(* Checkpoint resume under --shards: the cells an interrupted run
   recorded are merged from the file, and only the remainder is handed
   to the supervisor — here computed by its in-process fallback, since
   no worker can be spawned. *)
let test_supervised_checkpoint_resume () =
  with_temp_file (fun path ->
      with_no_spawn (fun () ->
          let ck, _ =
            Checkpoint.resume ~campaign:(Campaign.identity ()) ~cells:(cells_of 4)
              path
          in
          Checkpoint.record ck 0 (compute "k0");
          Checkpoint.record ck 1 (compute "k1");
          Checkpoint.close ck;
          let computed = ref [] in
          let job () =
            {
              Campaign.cells = cells_of 4;
              group = Fun.const "";
              compute =
                (fun key ->
                  computed := key :: !computed;
                  compute key);
              merge = Fun.id;
            }
          in
          let out =
            Campaign.run ~opts:E.default_options ~src:"test"
              ~live:(fun () -> "")
              ~job
              (Helpers.campaign ~shards:2 ~checkpoint:path ())
          in
          Alcotest.(check bool) "merged output complete" true
            (out = Some (expected_ok 4));
          Alcotest.(check bool) "resumed cells never recomputed" true
            (List.sort compare !computed = [ "k2"; "k3" ])))

(* A fuzz cell's verdict does not depend on where it runs: a certified
   row's cell computed in process and in a worker's view of the same
   flags is the same payload, and a refuted certificate is counted in
   it, not raised as a cell fault. *)
let test_fuzz_cell_verdict_everywhere () =
  let row =
    ( {
        (Fuzz.campaign_for ~programs:2 ~inputs:2 "ct") with
        Fuzz.check_certs = true;
        cert_fault = Some Protean_defense.Fault_inject.CF_drop_prot;
      },
      Defense.prot_track )
  in
  let local = { (Helpers.campaign ()) with Campaign.check_certs = true } in
  let payload c = (Campaign.fuzz c [ row ]).Campaign.compute "0:0" in
  let here = payload local in
  Alcotest.(check string) "worker payload == in-process payload"
    (Json.to_string here)
    (Json.to_string (payload { local with Campaign.worker = true }));
  let cell = Fuzz.cell_of_json 0 here in
  Alcotest.(check bool) "refuted certificate counted in the cell" true
    (cell.Fuzz.c_outcome.Fuzz.cert_violations > 0);
  Alcotest.(check (option string)) "no skip" None cell.Fuzz.c_skip

(* Table II's rows: each (contract, instrumentation) pairing with its
   generator class, ProtCC pass and observer mode, under both
   adversaries, seed 7. *)
let test_table_ii_rows () =
  let row (r : Tables.fuzz_row) =
    let c = r.Tables.campaign in
    ( (r.Tables.contract, r.Tables.instrumentation, c.Fuzz.adversary),
      (c.Fuzz.seed, c.Fuzz.gen_klass, c.Fuzz.instrumentation),
      Observer.mode_name (c.Fuzz.mode_of (Hashtbl.create 0)) )
  in
  let expected =
    List.concat_map
      (fun adv ->
        [
          ( ("UNPROT-SEQ", "ProtCC-RAND", adv),
            (7, Gen.G_arch, Fuzz.I_pass (Protcc.P_rand (11, 0.5))),
            "UNPROT" );
          (("ARCH-SEQ", "ProtCC-ARCH", adv), (7, Gen.G_arch, Fuzz.I_none), "ARCH");
          ( ("CTS-SEQ", "ProtCC-CTS", adv),
            (7, Gen.G_ct, Fuzz.I_pass Protcc.P_cts),
            "CTS" );
          ( ("CT-SEQ", "ProtCC-CT", adv),
            (7, Gen.G_ct, Fuzz.I_pass Protcc.P_ct),
            "CT" );
          ( ("CT-SEQ", "ProtCC-UNR", adv),
            (7, Gen.G_unr, Fuzz.I_pass Protcc.P_unr),
            "CT" );
        ])
      [ Fuzz.Cache_tlb; Fuzz.Timing ]
  in
  let rows = Tables.fuzz_rows ~paranoid_sched:false ~programs:10 ~inputs:4 in
  Alcotest.(check int) "ten rows" 10 (List.length rows);
  List.iter2
    (fun r e ->
      let (contract, instr, _), _, _ = e in
      Alcotest.(check bool) (contract ^ " " ^ instr) true (row r = e))
    rows expected;
  Alcotest.(check bool) "programs x inputs, nothing else set" true
    (List.for_all
       (fun (r : Tables.fuzz_row) ->
         let c = r.Tables.campaign in
         c.Fuzz.programs = 10 && c.Fuzz.inputs_per_program = 4
         && (not c.Fuzz.paranoid_sched) && (not c.Fuzz.check_certs)
         && c.Fuzz.config == Fuzz.default_campaign.Fuzz.config)
       rows)

(* Table II is one campaign: its 30 fuzz campaigns form one fuzz grid.
   In process at -j 1 and -j 2, and leased to two domain-backed spawns,
   the grid gives every campaign the counters of the serial driver and
   renders the same table. *)
let test_table_ii_one_campaign () =
  let runs = Tables.table_ii_runs ~programs:1 ~inputs:2 () in
  let rows = List.map (fun (_, r, d) -> (r.Tables.campaign, d)) runs in
  let counters (o : Fuzz.outcome) =
    (o.Fuzz.tests, o.Fuzz.skipped, o.Fuzz.violations, o.Fuzz.false_positives)
  in
  let serial =
    List.map
      (fun (campaign, d) ->
        counters (Fuzz.run_resilient ~shrink:false campaign d).Fuzz.r_outcome)
      rows
  in
  let render cells =
    let b = Buffer.create 1024 in
    let out = Format.formatter_of_buffer b in
    Tables.table_ii ~out runs cells;
    Buffer.contents b
  in
  let table = ref "" in
  let check label cells =
    Alcotest.(check bool) (label ^ ": serial counters per campaign") true
      (List.map (fun cs -> counters (Fuzz.total cs)) cells = serial);
    if !table = "" then table := render cells
    else
      Alcotest.(check string) (label ^ ": rendered table") !table (render cells)
  in
  List.iter
    (fun jobs ->
      let c = Helpers.campaign ~jobs () in
      check
        (Printf.sprintf "-j %d" jobs)
        (Helpers.run_campaign c (fun () -> Campaign.fuzz c rows)))
    [ 1; 2 ];
  let job = Campaign.fuzz (Helpers.campaign ~shards:2 ()) rows in
  let spawns = ref 0 in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    incr spawns;
    Helpers.domain_transport ~compute:job.Campaign.compute ()
  in
  let out =
    Supervisor.run ~spawn (config ()) ~worker_argv:[||] ~fallback:no_fallback
      (Campaign.leases ~group:job.Campaign.group job.Campaign.cells)
  in
  Alcotest.(check int) "two spawns" 2 !spawns;
  check "two spawns" (job.Campaign.merge out);
  Alcotest.(check bool) "the table renders" true
    (String.starts_with ~prefix:"Table II" !table)

(* --- transport-level chaos over pipes ---------------------------------- *)

(* Stream one good result, then raw garbage bytes whose length prefix
   is absurd: the supervisor must fault structurally ("protocol
   corruption"), kill the worker, and recover on retry — keeping the
   result that arrived before the corruption. *)
let garbage_after_first compute in_r out_w =
  (match Shard.read_frame in_r with
  | Some (Shard.F_work (c :: _)) ->
      Shard.write_frame out_w
        (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key));
      ignore (Unix.write out_w (Bytes.make 64 '\xff') 0 64)
  | _ -> ());
  raise Exit

let test_supervised_garbage_midstream () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard:_ ~attempt ~env_fault:_ =
    if attempt = 1 then
      Helpers.domain_transport ~misbehave:(garbage_after_first compute)
        ~compute ()
    else Helpers.domain_transport ~compute ()
  in
  let out =
    Supervisor.run ~bus ~spawn
      (config ~shards:1 ())
      ~worker_argv:[||] ~fallback:no_fallback [ cells_of 4 ]
  in
  Alcotest.(check bool) "identical to serial despite the corruption" true
    (out = expected_ok 4);
  Alcotest.(check bool) "kill cites protocol corruption" true
    (List.exists
       (function
         | Supervisor.Kill { reason; _ } ->
             String.length reason >= 19
             && String.sub reason 0 19 = "protocol corruption"
         | _ -> false)
       (events ()))

(* A well-behaved but slow wire: every frame dribbles in one byte at a
   time, with heartbeats interleaved between results.  Frame boundaries
   never align with reads; the decoder must reassemble everything. *)
let dribble_with_heartbeats compute in_r out_w =
  let put frame =
    let b = Shard.encode_frame frame in
    Bytes.iter (fun ch -> ignore (Unix.write out_w (Bytes.make 1 ch) 0 1)) b
  in
  each_lease
    (fun cells ->
      List.iter
        (fun c ->
          put (Shard.F_hb c.Shard.c_id);
          put (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)))
        cells;
      put Shard.F_done)
    in_r

let test_supervised_partial_frames_and_heartbeats () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~misbehave:(dribble_with_heartbeats compute)
      ~compute ()
  in
  let out =
    Supervisor.run ~bus ~spawn
      (config ~shards:1 ())
      ~worker_argv:[||] ~fallback:no_fallback (chunks 2 5)
  in
  Alcotest.(check bool) "byte-dribbled frames reassemble" true
    (out = expected_ok 5);
  Alcotest.(check bool) "interleaved heartbeats observed" true
    (List.exists
       (function Supervisor.Heartbeat _ -> true | _ -> false)
       (events ()));
  Alcotest.(check bool) "no kill, no retry" true
    (not
       (List.exists
          (function Supervisor.Kill _ | Supervisor.Retry _ -> true | _ -> false)
          (events ())))

(* --- TCP worker pool --------------------------------------------------- *)

let pool_config () =
  {
    Supervisor.default_pool_config with
    Supervisor.pl_listen = "127.0.0.1:0";
    pl_accept_wall = 30.0;
  }

(* Spawn [n] dial-in workers — real [Shard.connect_worker] loops on
   domains — as soon as the pool announces its bound port.  Returns a
   join function yielding each worker's terminal outcome ([None] =
   clean F_exit, [Some e] = raised, or [Some (Failure reason)] for an
   [Error]). *)
let dialers ?(name = "dialers") ?(token = "protean") ?(compute = compute) bus n
    =
  let domains = ref [] in
  Supervisor.subscribe bus ~name (function
    | Supervisor.Listening { port; _ } ->
        let addr = Printf.sprintf "127.0.0.1:%d" port in
        for _ = 1 to n do
          domains :=
            Domain.spawn (fun () ->
                match
                  Shard.connect_worker ~reconnect:8 ~backoff:0.05 ~addr ~token
                    ~compute ()
                with
                | Ok () -> None
                | Error reason -> Some (Failure reason)
                | exception e -> Some e)
            :: !domains
        done
    | _ -> ());
  fun () ->
    let outcomes = List.map Domain.join !domains in
    (* connect_worker rewired the global log sink to its (now closed)
       connection; put stderr back for the rest of the suite. *)
    Protean_telemetry.Log.reset_sink ();
    outcomes

(* Happy path: two remote workers dial in, lease work, and the merged
   output is byte-identical to the serial run. *)
let test_pool_happy_path () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let join = dialers bus 2 in
  let out =
    Supervisor.run ~bus (config ()) ~pool:(pool_config ())
      ~fallback:no_fallback (chunks 3 6)
  in
  Alcotest.(check bool) "all workers exited cleanly" true
    (List.for_all (( = ) None) (join ()));
  Alcotest.(check bool) "identical to serial" true (out = expected_ok 6);
  Alcotest.(check bool) "workers authenticated" true
    (List.exists
       (function Supervisor.Worker_connected _ -> true | _ -> false)
       (events ()));
  Alcotest.(check bool) "leases granted" true
    (List.exists
       (function Supervisor.Lease_granted _ -> true | _ -> false)
       (events ()));
  Alcotest.(check bool) "merged event closes the run" true
    (List.exists
       (function Supervisor.Merged { cells = 6; faults = 0 } -> true | _ -> false)
       (events ()))

(* A worker with the wrong campaign token is rejected (and does not
   redial — the rejection is terminal); the campaign completes on the
   healthy worker alone. *)
let test_pool_rejects_bad_token () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let join_bad = dialers ~name:"bad" ~token:"WRONG" bus 1 in
  let join_good = dialers ~name:"good" bus 1 in
  let out =
    Supervisor.run ~bus (config ()) ~pool:(pool_config ())
      ~fallback:no_fallback (chunks 2 4)
  in
  (match join_bad () with
  | [ Some (Failure msg) ] ->
      Alcotest.(check bool) "rejection names the token" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "bad-token worker was not rejected");
  Alcotest.(check bool) "good worker exits cleanly" true
    (join_good () = [ None ]);
  Alcotest.(check bool) "campaign unaffected" true (out = expected_ok 4);
  Alcotest.(check bool) "rejection event emitted" true
    (List.exists
       (function
         | Supervisor.Worker_rejected { reason = "bad campaign token"; _ } ->
             true
         | _ -> false)
       (events ()))

(* A peer speaking a different protocol generation is turned away at
   the handshake with a reason naming both versions. *)
let test_pool_rejects_bad_version () =
  let bus = Supervisor.create_bus () in
  let reply = ref None in
  Supervisor.subscribe bus ~name:"archaic" (function
    | Supervisor.Listening { port; _ } ->
        let addr = Printf.sprintf "127.0.0.1:%d" port in
        ignore
          (Domain.spawn (fun () ->
               let sock = Shard.dial addr in
               Shard.write_frame sock
                 (Shard.F_hello
                    { h_version = 999; h_token = "protean"; h_campaign = "" });
               reply := Shard.read_frame sock;
               Unix.close sock))
    | _ -> ());
  let join = dialers bus 1 in
  let out =
    Supervisor.run ~bus (config ()) ~pool:(pool_config ())
      ~fallback:no_fallback (chunks 2 3)
  in
  ignore (join ());
  Alcotest.(check bool) "campaign unaffected" true (out = expected_ok 3);
  match !reply with
  | Some (Shard.F_reject reason) ->
      Alcotest.(check bool) "reason names the version skew" true
        (String.length reason >= 16
        && String.sub reason 0 16 = "protocol version")
  | _ -> Alcotest.fail "version-skewed hello was not rejected"

(* Run [f] with a network fault armed for dial-in workers in this
   process, restoring a clean slate afterwards. *)
let with_net_fault mode f =
  Unix.putenv Protean_defense.Fault_inject.net_env mode;
  Shard.Transport.fault_spent := false;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Protean_defense.Fault_inject.net_env "";
      Shard.Transport.fault_spent := false)
    f

(* A dropped result frame: the worker's F_done arrives short of one
   cell.  The missing cell is requeued (never invented) and the same —
   still connected — worker completes it on the retry lease. *)
let test_pool_dropped_frame_requeued () =
  with_net_fault "net-drop:2" (fun () ->
      let bus = Supervisor.create_bus () in
      let events = record_events bus in
      let join = dialers bus 1 in
      let out =
        Supervisor.run ~bus
          (config ~shards:1 ())
          ~pool:(pool_config ()) ~fallback:no_fallback [ cells_of 4 ]
      in
      Alcotest.(check bool) "worker exits cleanly" true (join () = [ None ]);
      Alcotest.(check bool) "identical to serial despite the drop" true
        (out = expected_ok 4);
      Alcotest.(check bool) "missing results requeued" true
        (List.exists
           (function Supervisor.Retry { attempt = 2; _ } -> true | _ -> false)
           (events ())))

(* Garbage bytes mid-stream on TCP: the supervisor faults the
   connection ("protocol corruption"), the worker redials — its
   one-shot fault is spent — and the re-dispatched lease completes.
   This is the acceptance scenario: a garbage-injected worker pool
   still produces byte-identical output. *)
let test_pool_garbage_worker_reconnects () =
  with_net_fault "net-garbage:2" (fun () ->
      let bus = Supervisor.create_bus () in
      let events = record_events bus in
      let join = dialers bus 1 in
      let out =
        Supervisor.run ~bus
          (config ~shards:1 ())
          ~pool:(pool_config ()) ~fallback:no_fallback [ cells_of 4 ]
      in
      Alcotest.(check bool) "worker exits cleanly after reconnect" true
        (join () = [ None ]);
      Alcotest.(check bool) "identical to serial despite the garbage" true
        (out = expected_ok 4);
      Alcotest.(check bool) "disconnect cites protocol corruption" true
        (List.exists
           (function
             | Supervisor.Worker_disconnected { reason; _ } ->
                 String.length reason >= 19
                 && String.sub reason 0 19 = "protocol corruption"
             | _ -> false)
           (events ()));
      Alcotest.(check bool) "lease re-dispatched" true
        (List.exists
           (function
             | Supervisor.Retry _ | Supervisor.Bisect _ -> true | _ -> false)
           (events ())))

(* A pool with work but no workers must not hang: after the accept
   budget it degrades to the in-process fallback. *)
let test_pool_no_workers_falls_back () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let pool =
    { (pool_config ()) with Supervisor.pl_accept_wall = 0.3 }
  in
  let fallback cells =
    List.map (fun c -> (c.Shard.c_id, compute c.Shard.c_key)) cells
  in
  let out =
    Supervisor.run ~bus (config ()) ~pool ~fallback [ cells_of 3 ]
  in
  Alcotest.(check bool) "fallback served the batch" true (out = expected_ok 3);
  Alcotest.(check bool) "fallback event emitted" true
    (List.exists
       (function Supervisor.Fallback _ -> true | _ -> false)
       (events ()))

(* A hand-driven dial-in worker: handshake, then for each lease ask
   [script] (given the running lease count and the cells) whether to
   serve it, drop the connection mid-lease (a crash: it redials), hold
   the lease silently for some seconds first (a livelock), or send a
   forged frame before serving it.  Redials a lost connection; ends on
   [F_exit] or when the supervisor is gone. *)
let scripted_dialer ?(campaign = "") ~addr script =
  let leases = ref 0 in
  let rec session redials =
    match Shard.dial addr with
    | exception Unix.Unix_error _ -> ()
    | sock -> (
        let again () =
          (try Unix.close sock with Unix.Unix_error _ -> ());
          if redials < 20 then session (redials + 1)
        in
        let rec serve () =
          match Shard.read_frame sock with
          | Some (Shard.F_work cells) -> (
              incr leases;
              let serve_lease () =
                List.iter
                  (fun c ->
                    Shard.write_frame sock
                      (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)))
                  cells;
                Shard.write_frame sock Shard.F_done;
                serve ()
              in
              match script !leases cells with
              | `Drop -> again ()
              | `Stall secs ->
                  Unix.sleepf secs;
                  again ()
              | `Forge frame ->
                  Shard.write_frame sock frame;
                  serve_lease ()
              | `Serve -> serve_lease ())
          | Some Shard.F_exit -> Unix.close sock
          | None -> again ()
          | Some _ -> serve ()
        in
        try
          Shard.write_frame sock
            (Shard.F_hello
               {
                 h_version = Shard.protocol_version;
                 h_token = "protean";
                 h_campaign = campaign;
               });
          serve ()
        with Unix.Unix_error _ | Shard.Protocol _ -> again ())
  in
  session 0

(* Start [n] scripted dialers as soon as the pool announces its port. *)
let scripted_dialers bus n script =
  let domains = ref [] in
  Supervisor.subscribe bus ~name:"scripted" (function
    | Supervisor.Listening { port; _ } ->
        let addr = Printf.sprintf "127.0.0.1:%d" port in
        for _ = 1 to n do
          domains :=
            Domain.spawn (fun () -> scripted_dialer ~addr script) :: !domains
        done
    | _ -> ());
  fun () -> List.iter Domain.join !domains

(* The dial-in twin of the pipe bisection test: workers drop their
   connection whenever a lease holds the poisoned cell, so the same
   retry -> bisect -> poison path isolates it while every other cell
   completes. *)
let test_pool_poisoned_cell_bisected () =
  let poison = 2 in
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let join =
    scripted_dialers bus 2 (fun _ cells ->
        if List.exists (fun c -> c.Shard.c_id = poison) cells then `Drop
        else `Serve)
  in
  let out =
    Supervisor.run ~bus ~pool:(pool_config ()) (config ())
      ~fallback:no_fallback (chunks 3 6)
  in
  join ();
  List.iter
    (fun (id, o) ->
      if id = poison then
        match o with
        | Supervisor.O_fault { f_key; f_attempts; _ } ->
            Alcotest.(check string) "fault names the cell key" "k2" f_key;
            Alcotest.(check bool) "attempts exhausted" true (f_attempts >= 2)
        | Supervisor.O_ok _ -> Alcotest.fail "poisoned cell reported ok"
      else
        Alcotest.(check bool)
          (Printf.sprintf "cell %d completed" id)
          true
          (o = List.assoc id (expected_ok 6)))
    out;
  Alcotest.(check bool) "bisection happened" true
    (List.exists (function Supervisor.Bisect _ -> true | _ -> false) (events ()));
  Alcotest.(check bool) "no process was spawned" true
    (not
       (List.exists (function Supervisor.Spawn _ -> true | _ -> false) (events ())))

(* The dial-in twin of the heartbeat test: a worker that sits silently
   on its first lease is dropped at the heartbeat deadline, and the
   requeued lease completes when it redials. *)
let test_pool_heartbeat_drop_recovers () =
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let join =
    scripted_dialers bus 1 (fun n _ -> if n = 1 then `Stall 1.0 else `Serve)
  in
  let cfg = { (config ~shards:1 ()) with Supervisor.heartbeat = 0.2 } in
  let out =
    Supervisor.run ~bus ~pool:(pool_config ()) cfg ~fallback:no_fallback
      [ cells_of 3 ]
  in
  join ();
  Alcotest.(check bool) "recovered after the drop" true (out = expected_ok 3);
  Alcotest.(check bool) "disconnect cites the heartbeat deadline" true
    (List.exists
       (function
         | Supervisor.Worker_disconnected { reason; _ } ->
             String.length reason >= 9 && String.sub reason 0 9 = "heartbeat"
         | _ -> false)
       (events ()));
  Alcotest.(check bool) "the lease was retried" true
    (List.exists
       (function Supervisor.Retry { attempt = 2; _ } -> true | _ -> false)
       (events ()))

(* An outcome counts only from the member leasing its cell: a dial-in
   worker that reports a result for another lease's cell, or a fault for
   a cell the campaign does not have, is dropped as corrupt and its
   lease re-dispatched, leaving no trace in the merge, the fault count
   or [on_result]. *)
let test_pool_rejects_foreign_cells () =
  List.iter
    (fun forged ->
      let bus = Supervisor.create_bus () in
      let events = record_events bus in
      let join =
        scripted_dialers bus 1 (fun n _ ->
            if n = 1 then `Forge forged else `Serve)
      in
      let seen = ref [] in
      let out =
        Supervisor.run ~bus
          ~pool:(pool_config ())
          (config ~shards:1 ())
          ~on_result:(fun id r -> seen := (id, r) :: !seen)
          ~fallback:no_fallback (chunks 2 4)
      in
      join ();
      let evs = events () in
      Alcotest.(check bool) "identical to serial" true (out = expected_ok 4);
      Alcotest.(check bool) "on_result saw only the real results" true
        (List.sort compare !seen
        = List.map
            (function id, Supervisor.O_ok r -> (id, r) | _ -> assert false)
            (expected_ok 4));
      Alcotest.(check bool) "the forger was dropped as corrupt" true
        (List.exists
           (function
             | Supervisor.Worker_disconnected { reason; _ } ->
                 String.length reason >= 19
                 && String.sub reason 0 19 = "protocol corruption"
             | _ -> false)
           evs);
      Alcotest.(check bool) "nothing poisoned, no fault merged" true
        (List.exists
           (function
             | Supervisor.Merged { cells = 4; faults = 0 } -> true | _ -> false)
           evs
        && not
             (List.exists
                (function Supervisor.Poisoned _ -> true | _ -> false)
                evs)))
    [
      Shard.F_result (3, Json.Str "forged");
      Shard.F_cellfault { fc_id = 9; fc_reason = "forged" };
    ]

(* A dial-in worker of another campaign — whose cells would run under
   other options than the supervisor's (here: without the certificate
   audit) — is turned away at the handshake, naming both identities; a
   worker of the supervisor's campaign is welcomed and completes it. *)
let test_pool_rejects_options_mismatch () =
  let own = "protean_tables.exe table-v --check-certs"
  and other = "protean_tables.exe table-v" in
  let bus = Supervisor.create_bus () in
  let events = record_events bus in
  let reply = ref None and worker = ref None in
  (* One domain, in order: the mismatched hello, then a worker of the
     supervisor's campaign — so the campaign cannot finish before the
     rejection. *)
  Supervisor.subscribe bus ~name:"dialer" (function
    | Supervisor.Listening { port; _ } ->
        let addr = Printf.sprintf "127.0.0.1:%d" port in
        worker :=
          Some
            (Domain.spawn (fun () ->
                 let sock = Shard.dial addr in
                 Shard.write_frame sock
                   (Shard.F_hello
                      {
                        h_version = Shard.protocol_version;
                        h_token = "protean";
                        h_campaign = other;
                      });
                 reply := Shard.read_frame sock;
                 Unix.close sock;
                 scripted_dialer ~campaign:own ~addr (fun _ _ -> `Serve)))
    | _ -> ());
  let out =
    Supervisor.run ~bus (config ())
      ~pool:{ (pool_config ()) with Supervisor.pl_campaign = own }
      ~fallback:no_fallback [ cells_of 3 ]
  in
  Option.iter Domain.join !worker;
  let reason =
    Printf.sprintf "campaign \"%s\" (supervisor runs \"%s\")" other own
  in
  Alcotest.(check bool) "matching worker completed the campaign" true
    (out = expected_ok 3);
  (match !reply with
  | Some (Shard.F_reject r) ->
      Alcotest.(check string) "reject names both campaigns" reason r
  | _ -> Alcotest.fail "another campaign's worker was not rejected");
  let evs = events () in
  Alcotest.(check bool) "rejection event emitted" true
    (List.exists
       (function
         | Supervisor.Worker_rejected { reason = r; _ } -> r = reason
         | _ -> false)
       evs);
  Alcotest.(check bool) "matching worker welcomed" true
    (List.exists
       (function Supervisor.Worker_connected _ -> true | _ -> false)
       evs)

(* PROTEAN_NO_SPAWN disables process spawning entirely (the documented
   degradation path for platforms without fork/exec). *)
let test_supervised_no_spawn_env_falls_back () =
  with_no_spawn (fun () ->
    Alcotest.(check bool) "can_spawn honours the veto" false
      (Shard.can_spawn ());
    let bus = Supervisor.create_bus () in
    let events = record_events bus in
    let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
      Alcotest.fail "no transport may be created under PROTEAN_NO_SPAWN"
    in
    let fallback cells =
      List.map (fun c -> (c.Shard.c_id, compute c.Shard.c_key)) cells
    in
    let out =
      Supervisor.run ~bus ~spawn (config ()) ~worker_argv:[||] ~fallback
        [ cells_of 3 ]
    in
    Alcotest.(check bool) "fallback served the batch" true
      (out = expected_ok 3);
    Alcotest.(check bool) "fallback event emitted" true
      (List.exists
         (function Supervisor.Fallback _ -> true | _ -> false)
         (events ())));
  Alcotest.(check bool) "restored: can_spawn again" true (Shard.can_spawn ())

let tests =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json floats bit-exact" `Quick test_json_float_exact;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "frame decoder, byte at a time" `Quick
      test_frame_decoder_byte_at_a_time;
    Alcotest.test_case "frame decoder reports truncation" `Quick
      test_frame_decoder_truncation_pending;
    Alcotest.test_case "leases cut at group boundaries" `Quick
      test_lease_cutting;
    Alcotest.test_case "checkpoints round-trip, stale entries dropped" `Quick
      test_checkpoint_roundtrip_and_staleness;
    Alcotest.test_case "event bus order and unsubscribe" `Quick
      test_bus_order_and_unsubscribe;
    Alcotest.test_case "supervised happy path" `Quick test_supervised_happy_path;
    Alcotest.test_case "idle members take lease after lease" `Quick
      test_supervised_balance;
    Alcotest.test_case "slots respawn; one-shot faults arm the first spawn"
      `Quick test_supervised_slots_and_fault_arming;
    Alcotest.test_case "crash mid-shard retried, results kept" `Quick
      test_supervised_crash_then_recover;
    Alcotest.test_case "poisoned cell bisected to a structured fault" `Quick
      test_supervised_poisoned_cell_bisected;
    Alcotest.test_case "results reach on_result once, poisoned cells never"
      `Quick test_supervised_on_result_once;
    Alcotest.test_case "heartbeat deadline kills and recovers" `Quick
      test_supervised_heartbeat_kill_recovers;
    Alcotest.test_case "in-worker cell fault is final" `Quick
      test_supervised_cellfault_is_final;
    Alcotest.test_case "spawn failure degrades to fallback" `Quick
      test_supervised_spawn_failure_falls_back;
    Alcotest.test_case "checkpoint resume skips completed cells" `Quick
      test_supervised_checkpoint_resume;
    Alcotest.test_case "Table II is one campaign" `Quick
      test_table_ii_one_campaign;
    Alcotest.test_case "fuzz cell verdict does not depend on where it runs"
      `Quick test_fuzz_cell_verdict_everywhere;
    Alcotest.test_case "Table II rows" `Quick test_table_ii_rows;
    Alcotest.test_case "garbage bytes mid-stream killed and retried" `Quick
      test_supervised_garbage_midstream;
    Alcotest.test_case "byte-dribbled frames with interleaved heartbeats"
      `Quick test_supervised_partial_frames_and_heartbeats;
    Alcotest.test_case "tcp pool happy path" `Quick test_pool_happy_path;
    Alcotest.test_case "tcp pool rejects a bad campaign token" `Quick
      test_pool_rejects_bad_token;
    Alcotest.test_case "tcp pool rejects a protocol version skew" `Quick
      test_pool_rejects_bad_version;
    Alcotest.test_case "tcp pool requeues a dropped result frame" `Quick
      test_pool_dropped_frame_requeued;
    Alcotest.test_case "tcp pool survives a garbage-injecting worker" `Quick
      test_pool_garbage_worker_reconnects;
    Alcotest.test_case "tcp pool with no workers falls back" `Quick
      test_pool_no_workers_falls_back;
    Alcotest.test_case "tcp pool: poisoned cell bisected to a structured fault"
      `Quick test_pool_poisoned_cell_bisected;
    Alcotest.test_case "tcp pool: heartbeat deadline drops and recovers" `Quick
      test_pool_heartbeat_drop_recovers;
    Alcotest.test_case "tcp pool rejects mismatched options" `Quick
      test_pool_rejects_options_mismatch;
    Alcotest.test_case "tcp pool drops a worker reporting foreign cells" `Quick
      test_pool_rejects_foreign_cells;
    Alcotest.test_case "PROTEAN_NO_SPAWN forces fallback" `Quick
      test_supervised_no_spawn_env_falls_back;
  ]
