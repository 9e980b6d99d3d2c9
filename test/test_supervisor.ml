(* Shard-supervisor tests: the JSON wire format, the frame codec, shard
   splitting, checkpoint persistence, the lifecycle event bus, and the
   supervision state machine itself — driven through the [?spawn]
   transport hook with in-process (domain-backed) fake workers, so
   crash / stall / poison scenarios run deterministically without
   exec'ing real subprocesses. *)

module Supervisor = Protean_harness.Supervisor
module Shard = Protean_harness.Shard
module Json = Protean_harness.Shard.Json

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

(* --- shard splitting --------------------------------------------------- *)

let cells_of n = List.init n (fun i -> { Shard.c_id = i; c_key = "k" ^ string_of_int i })

let test_split_shards () =
  List.iter
    (fun (shards, n) ->
      let parts = Supervisor.split_shards shards (cells_of n) in
      let flat = List.concat parts in
      Alcotest.(check int)
        (Printf.sprintf "%d cells / %d shards: nothing lost" n shards)
        n (List.length flat);
      Alcotest.(check bool) "order preserved (contiguous ranges)" true
        (List.map (fun c -> c.Shard.c_id) flat = List.init n Fun.id);
      Alcotest.(check bool) "no empty shard" true
        (List.for_all (fun p -> p <> []) parts);
      Alcotest.(check bool) "balanced within one" true
        (match parts with
        | [] -> n = 0
        | _ ->
            let sizes = List.map List.length parts in
            List.fold_left max 0 sizes - List.fold_left min n sizes <= 1))
    [ (1, 5); (2, 5); (3, 9); (4, 2); (8, 3); (2, 0) ]

(* --- checkpoints ------------------------------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "protean_sup_test.%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_checkpoint_roundtrip_and_staleness () =
  with_temp_dir (fun dir ->
      let cells = cells_of 4 in
      Supervisor.Checkpoint.save dir 0
        [ (0, "k0", Json.Int 10); (1, "k1", Json.Int 11) ];
      Supervisor.Checkpoint.save dir 1 [ (3, "k3", Json.Int 13) ];
      let loaded = Supervisor.Checkpoint.load_all dir cells in
      Alcotest.(check int) "all saved cells load" 3 (List.length loaded);
      Alcotest.(check bool) "values intact" true
        (List.exists (fun (id, _, r) -> id = 1 && r = Json.Int 11) loaded);
      (* A checkpoint whose (id, key) no longer matches the grid — a
         stale file from a different run — must be ignored, not merged. *)
      Supervisor.Checkpoint.save dir 2 [ (2, "WRONG-KEY", Json.Int 99) ];
      let reloaded = Supervisor.Checkpoint.load_all dir cells in
      Alcotest.(check bool) "stale entry dropped" true
        (not (List.exists (fun (id, _, _) -> id = 2) reloaded));
      (* Corrupt files are skipped silently. *)
      let oc = open_out (Filename.concat dir "shard-9.json") in
      output_string oc "[{\"id\":0,";
      close_out oc;
      let again = Supervisor.Checkpoint.load_all dir cells in
      Alcotest.(check int) "corrupt file ignored" (List.length reloaded)
        (List.length again))

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

(* Crash after streaming the first result: the classic mid-shard death.
   Reports a signal status so the supervisor treats it as a failure. *)
let crash_after_first compute in_r out_w =
  (match Shard.read_frame in_r with
  | Some (Shard.F_work (c :: _)) ->
      Shard.write_frame out_w (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key))
  | _ -> ());
  raise Exit

(* Die instantly — before streaming anything — whenever the batch
   contains [poison]; serve normally otherwise.  Streaming no partial
   results forces the supervisor to isolate the bad cell by bisection
   alone (a worker that streams results narrows the shard for free and
   never needs to bisect). *)
let crash_on_cell ~poison compute in_r out_w =
  (match Shard.read_frame in_r with
  | Some (Shard.F_work cells) ->
      if List.exists (fun c -> c.Shard.c_id = poison) cells then raise Exit;
      List.iter
        (fun c ->
          Shard.write_frame out_w
            (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)))
        cells;
      Shard.write_frame out_w Shard.F_done;
      ignore (Shard.read_frame in_r)
  | _ -> ());
  raise Exit

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

let config ?(shards = 2) ?(max_attempts = 2) () =
  {
    Supervisor.default_config with
    Supervisor.shards;
    max_attempts;
    heartbeat = 30.0;
    wall = 60.0;
    backoff = 0.01 (* keep retry latency out of the test suite *);
  }

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
      ~fallback:no_fallback (cells_of 5)
  in
  Alcotest.(check bool) "all cells ok, in id order" true (out = expected_ok 5);
  let spawns =
    List.length
      (List.filter (function Supervisor.Spawn _ -> true | _ -> false) (events ()))
  in
  Alcotest.(check int) "one spawn per shard" 2 spawns;
  Alcotest.(check bool) "merged event closes the run" true
    (List.exists
       (function Supervisor.Merged { cells = 5; faults = 0 } -> true | _ -> false)
       (events ()))

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
      ~worker_argv:[||] ~fallback:no_fallback (cells_of 4)
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
      ~fallback:no_fallback (cells_of 6)
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
      (cells_of 3)
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
      ~worker_argv:[||] ~fallback:no_fallback (cells_of 3)
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
      (cells_of 4)
  in
  Alcotest.(check bool) "fallback computed everything" true
    (out = expected_ok 4);
  Alcotest.(check bool) "fallback event emitted" true
    (List.exists
       (function Supervisor.Fallback _ -> true | _ -> false)
       (events ()))

(* Checkpoint resume: results persisted by a previous run are loaded,
   and only the remainder is dispatched to workers. *)
let test_supervised_checkpoint_resume () =
  with_temp_dir (fun dir ->
      Supervisor.Checkpoint.save dir 0
        [ (0, "k0", compute "k0"); (1, "k1", compute "k1") ];
      let bus = Supervisor.create_bus () in
      let events = record_events bus in
      let dispatched = ref [] in
      let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
        Helpers.domain_transport
          ~compute:(fun key ->
            dispatched := key :: !dispatched;
            compute key)
          ()
      in
      let cfg = { (config ~shards:1 ()) with Supervisor.checkpoint_dir = Some dir } in
      let out =
        Supervisor.run ~bus ~spawn cfg ~worker_argv:[||] ~fallback:no_fallback
          (cells_of 4)
      in
      Alcotest.(check bool) "merged output complete" true (out = expected_ok 4);
      Alcotest.(check bool) "resumed cells never recomputed" true
        (List.sort compare !dispatched = [ "k2"; "k3" ]);
      Alcotest.(check bool) "resume event emitted" true
        (List.exists
           (function
             | Supervisor.Checkpoint_loaded { cells = 2 } -> true | _ -> false)
           (events ())))

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
      ~worker_argv:[||] ~fallback:no_fallback (cells_of 4)
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
  (match Shard.read_frame in_r with
  | Some (Shard.F_work cells) ->
      List.iter
        (fun c ->
          put (Shard.F_hb c.Shard.c_id);
          put (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)))
        cells;
      put Shard.F_done;
      ignore (Shard.read_frame in_r)
  | _ -> ());
  ()

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
      ~worker_argv:[||] ~fallback:no_fallback (cells_of 5)
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
   clean F_exit, [Some e] = raised). *)
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
                | () -> None
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
      ~fallback:no_fallback (cells_of 6)
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
      ~fallback:no_fallback (cells_of 4)
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
                 (Shard.F_hello { h_version = 999; h_token = "protean" });
               reply := Shard.read_frame sock;
               Unix.close sock))
    | _ -> ());
  let join = dialers bus 1 in
  let out =
    Supervisor.run ~bus (config ()) ~pool:(pool_config ())
      ~fallback:no_fallback (cells_of 3)
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
          ~pool:(pool_config ()) ~fallback:no_fallback (cells_of 4)
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
          ~pool:(pool_config ()) ~fallback:no_fallback (cells_of 4)
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
    Supervisor.run ~bus (config ()) ~pool ~fallback (cells_of 3)
  in
  Alcotest.(check bool) "fallback served the batch" true (out = expected_ok 3);
  Alcotest.(check bool) "fallback event emitted" true
    (List.exists
       (function Supervisor.Fallback _ -> true | _ -> false)
       (events ()))

(* A hand-driven dial-in worker: handshake, then for each lease ask
   [script] (given the running lease count and the cells) whether to
   serve it, drop the connection mid-lease (a crash: it redials), or
   hold the lease silently for some seconds first (a livelock).  Ends
   on [F_exit] or when the supervisor is gone. *)
let scripted_dialer ~addr script =
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
              match script !leases cells with
              | `Drop -> again ()
              | `Stall secs ->
                  Unix.sleepf secs;
                  again ()
              | `Serve ->
                  List.iter
                    (fun c ->
                      Shard.write_frame sock
                        (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)))
                    cells;
                  Shard.write_frame sock Shard.F_done;
                  serve ())
          | Some Shard.F_exit | None -> Unix.close sock
          | Some _ -> serve ()
        in
        try
          Shard.write_frame sock
            (Shard.F_hello
               { h_version = Shard.protocol_version; h_token = "protean" });
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
      ~fallback:no_fallback (cells_of 6)
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
      (cells_of 3)
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

(* PROTEAN_NO_SPAWN disables process spawning entirely (the documented
   degradation path for platforms without fork/exec).  Runs last in the
   suite: the environment variable cannot be unset portably. *)
let test_supervised_no_spawn_env_falls_back () =
  Unix.putenv "PROTEAN_NO_SPAWN" "1";
  Alcotest.(check bool) "can_spawn honours the veto" false (Shard.can_spawn ());
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
      (cells_of 3)
  in
  Alcotest.(check bool) "fallback served the batch" true (out = expected_ok 3);
  Alcotest.(check bool) "fallback event emitted" true
    (List.exists
       (function Supervisor.Fallback _ -> true | _ -> false)
       (events ()))

let tests =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json floats bit-exact" `Quick test_json_float_exact;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "frame decoder, byte at a time" `Quick
      test_frame_decoder_byte_at_a_time;
    Alcotest.test_case "frame decoder reports truncation" `Quick
      test_frame_decoder_truncation_pending;
    Alcotest.test_case "split_shards covers and balances" `Quick
      test_split_shards;
    Alcotest.test_case "checkpoints round-trip, stale entries dropped" `Quick
      test_checkpoint_roundtrip_and_staleness;
    Alcotest.test_case "event bus order and unsubscribe" `Quick
      test_bus_order_and_unsubscribe;
    Alcotest.test_case "supervised happy path" `Quick test_supervised_happy_path;
    Alcotest.test_case "crash mid-shard retried, results kept" `Quick
      test_supervised_crash_then_recover;
    Alcotest.test_case "poisoned cell bisected to a structured fault" `Quick
      test_supervised_poisoned_cell_bisected;
    Alcotest.test_case "heartbeat deadline kills and recovers" `Quick
      test_supervised_heartbeat_kill_recovers;
    Alcotest.test_case "in-worker cell fault is final" `Quick
      test_supervised_cellfault_is_final;
    Alcotest.test_case "spawn failure degrades to fallback" `Quick
      test_supervised_spawn_failure_falls_back;
    Alcotest.test_case "checkpoint resume skips completed cells" `Quick
      test_supervised_checkpoint_resume;
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
    Alcotest.test_case "PROTEAN_NO_SPAWN forces fallback" `Quick
      test_supervised_no_spawn_env_falls_back;
  ]
