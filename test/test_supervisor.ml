(* Shard-supervisor tests: the JSON wire format, the frame codec, lease
   cutting, the checkpoint of a supervised campaign, and the two layers
   of the supervisor.  The lease machine runs on a virtual clock inside
   a simulated pool, so crash / stall / poison / deadline scenarios —
   and a bounded exploration of every fault interleaving — take no real
   time; the Unix shell around it runs end to end through the [?spawn]
   hook with in-process (domain-backed) workers and over real TCP. *)

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

(* --- the lease machine on a virtual clock ------------------------------ *)

module M = Supervisor.Machine
module Ledger = Supervisor.Ledger

let compute key = Json.Obj [ ("v", Json.Str ("computed:" ^ key)) ]

let expected_ok n =
  List.init n (fun i ->
      (i, Supervisor.O_ok (compute (Printf.sprintf "k%d" i))))

let config ?(shards = 2) () =
  {
    Supervisor.default_config with
    Supervisor.shards;
    heartbeat = 30.0;
    wall = 60.0;
  }

let pool_config () =
  { Supervisor.default_pool_config with Supervisor.pl_listen = "127.0.0.1:0" }

let frames fs =
  String.concat "" (List.map (fun f -> Bytes.to_string (Shard.encode_frame f)) fs)

let result_frame c = Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)

(* An honest worker's answer to a work order. *)
let served cells =
  List.concat_map (fun c -> [ Shard.F_hb c.Shard.c_id; result_frame c ]) cells
  @ [ Shard.F_done ]

let done_bytes = frames [ Shard.F_done ]

(* The machine's input for [data] arriving from [member]. *)
let received member data =
  M.Received { member; data = Bytes.of_string data; len = String.length data }

let hello =
  frames
    [
      Shard.F_hello
        {
          h_version = Shard.protocol_version;
          h_token = "protean";
          h_campaign = "";
        };
    ]

(* What a simulated worker sends back for one work order, in order. *)
type chunk =
  | Out of float * string (* bytes, this many s after the work order *)
  | Dies of (string * bool)
      (* the worker dies: a spawn is reaped with this status, a dial-in's
         connection closes for good *)
  | Drops (* a dial-in's connection drops, and the worker redials *)
  | Unreadable (* reading the member's stream fails *)

(* A simulated pool around one machine: members answer work orders as
   [script] says (given the global grant number, the spawn's armed
   fault and the cells), the clock jumps to the next arrival or
   deadline when nothing is due, and [choose n] picks which of [n] due
   deliveries comes first.  Actions are performed as the shell performs
   them, feeding what they cause straight back. *)
type world = {
  m : M.t;
  ledger : Ledger.t;
  dial : bool;
  script : grant:int -> env_fault:string option -> Shard.cell list -> chunk list;
  choose : int -> int;
  mutable now : float;
  mutable queue : (float * int option * chunk) list;
      (* arrival, member, chunk, in send order; a [None] member is a
         dial-in connecting, whose chunk is unused *)
  mutable busy : int list; (* members working on a lease *)
  mutable armed : (int * string option) list; (* a spawn slot's fault *)
  mutable grants : (int * Shard.cell list) list; (* newest first *)
  mutable accepted : int;
  mutable steps : int;
  mutable results : (int * Json.t) list; (* what on_result saw *)
  mutable fallback : int list;
  mutable events : Supervisor.event list; (* newest first *)
  mutable spawns : (int * int * string option) list; (* newest first *)
  mutable wrong : string list;
}

let wrong w fmt = Printf.ksprintf (fun s -> w.wrong <- s :: w.wrong) fmt

let rec feed w input =
  w.steps <- w.steps + 1;
  List.iter (perform w) (M.step w.m ~now:w.now input)

and perform w = function
  | M.Spawn_into { slot; attempt; env_fault; _ } ->
      w.spawns <- (slot, attempt, env_fault) :: w.spawns;
      w.armed <- (slot, env_fault) :: List.remove_assoc slot w.armed
  | M.Send { member; frame = Shard.F_work cells; sent } ->
      if List.mem member w.busy then
        wrong w "member %d granted a lease while it holds one" member;
      if List.exists (fun c -> Ledger.have w.ledger c.Shard.c_id) cells then
        wrong w "a resolved cell leased again";
      w.busy <- member :: w.busy;
      Option.iter (fun e -> w.events <- e :: w.events) sent;
      let grant = List.length w.grants in
      w.grants <- (member, cells) :: w.grants;
      let env_fault = Option.join (List.assoc_opt member w.armed) in
      let _, chunks =
        List.fold_left_map
          (fun at chunk ->
            let at = match chunk with Out (d, _) -> w.now +. d | _ -> at in
            (at, (at, Some member, chunk)))
          w.now
          (w.script ~grant ~env_fault cells)
      in
      w.queue <- w.queue @ chunks
  | M.Send { member; frame = Shard.F_exit; _ } ->
      gone w member ("exit 0", true) ~redial:false
  | M.Send _ -> ()
  | M.Kill_member id -> gone w id ("signal SIGKILL", false) ~redial:w.dial
  | M.Drop_member id -> gone w id ("exit 0", true) ~redial:w.dial
  | M.Result (id, r) -> w.results <- (id, r) :: w.results
  | M.Event e -> w.events <- e :: w.events

(* Member [id] hung up: the shell reaps it and says so. *)
and gone w id status ~redial =
  w.queue <- List.filter (fun (_, who, _) -> who <> Some id) w.queue;
  w.busy <- List.filter (( <> ) id) w.busy;
  let status = if w.dial then ("closed", true) else status in
  feed w (M.Eof { member = id; status });
  if redial then w.queue <- w.queue @ [ (w.now, None, Drops) ]

let deliver w ((_, who, chunk) as e) =
  w.queue <- List.filter (fun e' -> e' != e) w.queue;
  match (who, chunk) with
  | None, _ ->
      let member = w.accepted in
      w.accepted <- member + 1;
      feed w (M.Accepted { member; peer = "sim" });
      feed w (received member hello)
  | Some id, Out (_, data) ->
      if String.ends_with ~suffix:done_bytes data then
        w.busy <- List.filter (( <> ) id) w.busy;
      feed w (received id data)
  | Some id, Dies status -> gone w id status ~redial:false
  | Some id, Drops -> gone w id ("closed", true) ~redial:true
  | Some id, Unreadable -> feed w (M.Read_failed id)

(* What can arrive next: each member's first queued chunk, and every
   connecting dial-in. *)
let heads w =
  let seen = ref [] in
  List.filter
    (fun (_, who, _) ->
      let first =
        match who with Some id -> not (List.mem id !seen) | None -> true
      in
      Option.iter (fun id -> seen := id :: !seen) who;
      first)
    w.queue

(* Run [leases] to the end on [workers] dial-ins (with [pool]) or on
   spawns, as {!Supervisor.run} would, fallback included: the world and
   the merge. *)
let simulate ?pool ?(workers = 0) ?(choose = fun _ -> 0) ?(bound = 400) cfg
    script leases =
  let ledger = Ledger.create (List.concat leases) in
  let w =
    {
      m = M.create ~now:0.0 ?pool cfg ledger leases;
      ledger;
      dial = pool <> None;
      script;
      choose;
      now = 0.0;
      queue = List.init workers (fun _ -> (0.0, None, Drops));
      busy = [];
      armed = [];
      grants = [];
      accepted = 0;
      steps = 0;
      results = [];
      fallback = [];
      events = [];
      spawns = [];
      wrong = [];
    }
  in
  feed w M.Tick;
  let rec loop () =
    if M.finished w.m then ()
    else if w.steps > bound then wrong w "no end within %d steps" bound
    else
      let heads = heads w in
      match List.filter (fun (at, _, _) -> at <= w.now) heads with
      | [] ->
          let next =
            List.fold_left
              (fun acc (at, _, _) -> Float.min acc at)
              w.m.M.next_deadline
              heads
          in
          if next = infinity then wrong w "stuck at %.2fs" w.now
          else begin
            w.now <- Float.max w.now next +. 1e-6;
            feed w M.Tick;
            loop ()
          end
      | [ e ] ->
          deliver w e;
          loop ()
      | es ->
          deliver w (List.nth es (w.choose (List.length es)));
          loop ()
  in
  loop ();
  if w.m.M.aborted <> None then
    List.iter
      (fun c ->
        w.fallback <- c.Shard.c_id :: w.fallback;
        ignore (Ledger.record_ok ledger c.Shard.c_id (compute c.Shard.c_key)))
      (Ledger.remaining ledger);
  let out = Ledger.finish ~emit:(fun e -> w.events <- e :: w.events) ledger in
  (w, out)

let events w = List.rev w.events
let count p w = List.length (List.filter p (events w))
let has p w = count p w > 0
let first_result c = frames [ Shard.F_hb c.Shard.c_id; result_frame c ]

(* One result, then the worker is SIGKILLed. *)
let crash_after_first cells =
  [ Out (0.0, first_result (List.hd cells)); Dies ("signal SIGKILL", false) ]
let serve ~grant:_ ~env_fault:_ cells = [ Out (0.0, frames (served cells)) ]

(* [serve] a frame group at a time: each cell's heartbeat and result,
   then the [done]. *)
let serve_cells cells =
  List.map (fun c -> Out (0.0, first_result c)) cells
  @ [ Out (0.0, done_bytes) ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let poisoned_at ~key ~poison out =
  List.iter
    (fun (id, o) ->
      if id = poison then
        match o with
        | Supervisor.O_fault { f_key; f_attempts; _ } ->
            Alcotest.(check string) "fault names the cell key" key f_key;
            Alcotest.(check int) "attempts exhausted" Supervisor.max_attempts
              f_attempts
        | Supervisor.O_ok _ -> Alcotest.fail "poisoned cell reported ok"
      else
        Alcotest.(check bool)
          (Printf.sprintf "cell %d completed" id)
          true
          (o = List.assoc id (expected_ok (List.length out))))
    out

let holds cell cells = List.exists (fun c -> c.Shard.c_key = cell) cells

(* Leases go to whichever member is idle: while the first spawn sits on
   a slow cell, the second computes every other cell, lease after lease
   (a split into one contiguous range per spawn would cap it at half).
   Each slot spawns once, and every lease is granted once. *)
let test_balance () =
  let leases = chunks 1 6 in
  let w, out =
    simulate (config ())
      (fun ~grant:_ ~env_fault:_ cells ->
        [ Out ((if holds "k0" cells then 1.0 else 0.0), frames (served cells)) ])
      leases
  in
  Alcotest.(check bool) "all cells ok, in id order" true (out = expected_ok 6);
  Alcotest.(check (list int)) "the second member computes every other cell"
    [ 1; 2; 3; 4; 5 ]
    (List.sort compare
       (List.concat_map
          (fun (member, cells) ->
            if member = 1 then List.map (fun c -> c.Shard.c_id) cells else [])
          w.grants));
  Alcotest.(check int) "one spawn per slot" 2 (List.length w.spawns);
  Alcotest.(check int) "every lease granted once" (List.length leases)
    (count (function Supervisor.Lease_granted _ -> true | _ -> false) w)

(* A spawn's slot outlives it: a member killed mid-lease is replaced in
   the same slot as attempt 2, and only its unfinished cells are
   requeued.  A one-shot worker fault arms slot 0's first spawn alone; a
   persistent one (poison) arms every spawn. *)
let test_slots_and_fault_arming () =
  let module FI = Protean_defense.Fault_inject in
  let w, out =
    simulate
      { (config ()) with Supervisor.inject = Some FI.WF_kill }
      (fun ~grant:_ ~env_fault cells ->
        match env_fault with
        | Some _ -> crash_after_first cells
        | None -> [ Out (1.0, frames (served cells)) ])
      (chunks 2 6)
  in
  Alcotest.(check bool) "identical to serial despite the kill" true
    (out = expected_ok 6);
  Alcotest.(check (list (triple int int (option string))))
    "slot 0 respawned as attempt 2; only its first spawn armed"
    [ (0, 1, Some "worker-kill"); (1, 1, None); (0, 2, None) ]
    (List.rev w.spawns);
  Alcotest.(check bool) "only the unfinished cell requeued" true
    (has
       (function
         | Supervisor.Lease_granted { shard = 0; attempt = 2; cells = 1; _ } -> true
         | _ -> false)
       w);
  let w, out =
    simulate
      { (config ()) with Supervisor.inject = Some (FI.WF_poison 0) }
      (fun ~grant:_ ~env_fault cells ->
        if env_fault <> None && holds "k0" cells then
          [ Dies ("signal SIGABRT", false) ]
        else serve ~grant:0 ~env_fault cells)
      (chunks 2 4)
  in
  Alcotest.(check bool) "the poisoned cell faults, the rest complete" true
    (match out with
    | (0, Supervisor.O_fault _) :: rest -> rest = List.tl (expected_ok 4)
    | _ -> false);
  Alcotest.(check bool) "crashed members were replaced" true
    (List.length w.spawns > 2);
  Alcotest.(check bool) "every spawn armed with the poison" true
    (List.for_all (fun (_, _, f) -> f = Some "worker-poison:0") w.spawns)

(* A worker that dies mid-lease is retried; streamed results are kept
   (the retry leases only the rest) and the merge is unaffected. *)
let test_crash_then_recover () =
  let w, out =
    simulate (config ~shards:1 ())
      (fun ~grant ~env_fault cells ->
        if grant = 0 then
          crash_after_first cells
        else serve ~grant ~env_fault cells)
      [ cells_of 4 ]
  in
  Alcotest.(check bool) "identical to serial despite the crash" true
    (out = expected_ok 4);
  Alcotest.(check bool) "the retry leases the three unfinished cells" true
    (has
       (function
         | Supervisor.Lease_granted { attempt = 2; cells = 3; _ } -> true
         | _ -> false)
       w)

(* A single poisoned cell is bisected out and reported as a structured
   fault; every other cell still completes. *)
let test_poisoned_cell_bisected () =
  let w, out =
    simulate (config ())
      (fun ~grant ~env_fault cells ->
        if holds "k2" cells then [ Dies ("signal SIGABRT", false) ]
        else serve ~grant ~env_fault cells)
      (chunks 3 6)
  in
  poisoned_at ~key:"k2" ~poison:2 out;
  Alcotest.(check bool) "bisection happened" true
    (has (function Supervisor.Bisect _ -> true | _ -> false) w);
  Alcotest.(check bool) "poison event names the cell" true
    (has
       (function
         | Supervisor.Poisoned { cell = 2; key = "k2"; _ } -> true | _ -> false)
       w)

(* [on_result] sees each result a worker delivers exactly once — a
   worker here streams every result twice — and never a poisoned cell,
   so a checkpoint built from it retries that cell on resume. *)
let test_on_result_once () =
  let w, out =
    simulate (config ())
      (fun ~grant:_ ~env_fault:_ cells ->
        if holds "k2" cells then [ Dies ("signal SIGABRT", false) ]
        else
          [
            Out
              ( 0.0,
                frames
                  (List.concat_map
                     (fun c -> [ result_frame c; result_frame c ])
                     cells
                  @ [ Shard.F_done ]) );
          ])
      (chunks 3 6)
  in
  Alcotest.(check (list int)) "each delivered cell once, the poisoned one never"
    [ 0; 1; 3; 4; 5 ]
    (List.sort compare (List.map fst w.results));
  List.iter
    (fun (id, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d: the merged payload" id)
        true
        (List.assoc id out = Supervisor.O_ok r))
    w.results

(* A silent worker trips the heartbeat deadline, is killed, and the
   retry completes the lease. *)
let test_heartbeat_kill_recovers () =
  let w, out =
    simulate (config ~shards:1 ())
      (fun ~grant ~env_fault cells ->
        if grant = 0 then [] else serve ~grant ~env_fault cells)
      [ cells_of 3 ]
  in
  Alcotest.(check bool) "recovered after the kill" true (out = expected_ok 3);
  Alcotest.(check bool) "kill cites the heartbeat deadline" true
    (has
       (function
         | Supervisor.Kill { reason; _ } -> starts_with "heartbeat" reason
         | _ -> false)
       w);
  Alcotest.(check bool) "not before the deadline" true (w.now > 30.0)

(* The per-lease wall budget ends a worker that keeps sending
   heartbeats but never finishes: its heartbeats at 4 s and 8 s arrive,
   it is killed at 10 s, and the retry completes the lease. *)
let test_wall_budget () =
  let w, out =
    simulate
      { (config ~shards:1 ()) with Supervisor.wall = 10.0 }
      (fun ~grant ~env_fault cells ->
        if grant = 0 then
          List.map (fun s -> Out (s, frames [ Shard.F_hb 0 ])) [ 4.0; 8.0; 12.0 ]
        else serve ~grant ~env_fault cells)
      [ cells_of 2 ]
  in
  Alcotest.(check bool) "recovered after the kill" true (out = expected_ok 2);
  Alcotest.(check bool) "kill cites the wall budget" true
    (has
       (function
         | Supervisor.Kill { reason = "wall-clock budget (10s) expired"; _ } -> true
         | _ -> false)
       w);
  Alcotest.(check int) "heartbeats before the budget, none after"
    (2 + 2)
    (count (function Supervisor.Heartbeat _ -> true | _ -> false) w)

(* A dropped result frame: the worker's done arrives short of one cell.
   The missing cell is requeued (never invented) and the same — still
   connected — worker completes it on the retry lease. *)
let test_pool_dropped_frame_requeued () =
  let w, out =
    simulate ~pool:(pool_config ()) ~workers:1 (config ~shards:1 ())
      (fun ~grant ~env_fault cells ->
        if grant = 0 then
          [
            Out
              ( 0.0,
                frames
                  (List.map result_frame
                     (List.filter (fun c -> c.Shard.c_key <> "k2") cells)
                  @ [ Shard.F_done ]) );
          ]
        else serve ~grant ~env_fault cells)
      [ cells_of 4 ]
  in
  Alcotest.(check bool) "identical to serial despite the drop" true
    (out = expected_ok 4);
  Alcotest.(check bool) "missing results requeued" true
    (has (function Supervisor.Retry { attempt = 2; _ } -> true | _ -> false) w);
  Alcotest.(check bool) "the worker stayed" true
    (not
       (has (function Supervisor.Worker_disconnected _ -> true | _ -> false) w))

(* Garbage bytes mid-stream on TCP: the supervisor drops the connection
   ("protocol corruption"), the worker redials, and the re-dispatched
   lease completes byte-identically. *)
let test_pool_garbage_worker_reconnects () =
  let w, out =
    simulate ~pool:(pool_config ()) ~workers:1 (config ~shards:1 ())
      (fun ~grant ~env_fault cells ->
        if grant = 0 then
          [ Out (0.0, first_result (List.hd cells) ^ String.make 64 '\xff') ]
        else serve ~grant ~env_fault cells)
      [ cells_of 4 ]
  in
  Alcotest.(check bool) "identical to serial despite the garbage" true
    (out = expected_ok 4);
  Alcotest.(check bool) "disconnect cites protocol corruption" true
    (has
       (function
         | Supervisor.Worker_disconnected { reason; _ } ->
             starts_with "protocol corruption" reason
         | _ -> false)
       w);
  Alcotest.(check int) "the worker redialed" 2 w.accepted

(* A pool with work but no workers must not hang: once the accept wall
   has passed with no lease held, it degrades to the in-process
   fallback — and not a moment before. *)
let test_pool_no_workers_falls_back () =
  let w, out =
    simulate ~pool:(pool_config ()) (config ()) serve [ cells_of 3 ]
  in
  Alcotest.(check bool) "fallback served the batch" true (out = expected_ok 3);
  Alcotest.(check (option string)) "the pool gave up"
    (Some "worker pool gave up: no connected workers") w.m.M.aborted;
  Alcotest.(check bool) "after the accept wall" true
    (w.now > Supervisor.accept_wall && w.now < Supervisor.accept_wall +. 1.0);
  Alcotest.(check (list int)) "every cell by the fallback" [ 0; 1; 2 ]
    (List.sort compare w.fallback)

(* The dial-in twin of the bisection test: workers drop their
   connection whenever a lease holds the poisoned cell, so the same
   retry -> bisect -> poison path isolates it while every other cell
   completes. *)
let test_pool_poisoned_cell_bisected () =
  let w, out =
    simulate ~pool:(pool_config ()) ~workers:2 (config ())
      (fun ~grant ~env_fault cells ->
        if holds "k2" cells then [ Drops ] else serve ~grant ~env_fault cells)
      (chunks 3 6)
  in
  poisoned_at ~key:"k2" ~poison:2 out;
  Alcotest.(check bool) "bisection happened" true
    (has (function Supervisor.Bisect _ -> true | _ -> false) w);
  Alcotest.(check bool) "no process was spawned" true (w.spawns = [])

(* The dial-in twin of the heartbeat test: a worker that sits silently
   on its first lease is dropped at the heartbeat deadline, and the
   requeued lease completes when it redials. *)
let test_pool_heartbeat_drop_recovers () =
  let w, out =
    simulate ~pool:(pool_config ()) ~workers:1 (config ~shards:1 ())
      (fun ~grant ~env_fault cells ->
        if grant = 0 then [] else serve ~grant ~env_fault cells)
      [ cells_of 3 ]
  in
  Alcotest.(check bool) "recovered after the drop" true (out = expected_ok 3);
  Alcotest.(check bool) "disconnect cites the heartbeat deadline" true
    (has
       (function
         | Supervisor.Worker_disconnected { reason; _ } ->
             starts_with "heartbeat" reason
         | _ -> false)
       w);
  Alcotest.(check bool) "the lease was retried" true
    (has (function Supervisor.Retry { attempt = 2; _ } -> true | _ -> false) w)

(* A dial-in that never says hello is dropped at the handshake deadline,
   min(heartbeat, 10 s) after it connected, without ever counting as
   connected. *)
let test_handshake_deadline () =
  List.iter
    (fun (heartbeat, budget) ->
      let ledger = Ledger.create (cells_of 1) in
      let cfg = { (config ~shards:1 ()) with Supervisor.heartbeat } in
      let m = M.create ~now:0.0 ~pool:(pool_config ()) cfg ledger [ cells_of 1 ] in
      let step now input = M.step m ~now input in
      Alcotest.(check bool) "accepted quietly" true
        (step 0.0 (M.Accepted { member = 0; peer = "sim" }) = []);
      Alcotest.(check (float 1e-9)) "deadline" budget m.M.next_deadline;
      Alcotest.(check bool) "alive at the deadline" true (step budget M.Tick = []);
      Alcotest.(check bool) "dropped after it" true
        (step (budget +. 0.01) M.Tick = [ M.Drop_member 0 ]);
      Alcotest.(check bool) "no connect or disconnect event" true
        (step (budget +. 0.01)
           (M.Eof { member = 0; status = ("closed", true) })
        = []);
      Alcotest.(check int) "the lease still waits" 1 (List.length m.M.pending))
    [ (30.0, 10.0); (4.0, 4.0) ]

(* A lease whose work frame cannot be written to an idle member never
   left: the member is dropped, and the lease goes back to the queue
   with its attempt count unchanged — no retry, no backoff — to the
   slot's next spawn.  So does a lease granted to a dial-in right behind
   a welcome that cannot be written; that member is dropped for the
   failed write, not for a grant. *)
let test_write_failure_at_grant () =
  let ledger = Ledger.create (cells_of 2) in
  let leases = chunks 1 2 in
  let m = M.create ~now:0.0 (config ~shards:1 ()) ledger leases in
  let step input = M.step m ~now:1.0 input in
  let work = Shard.F_work (List.nth leases 1) in
  let sends acts =
    List.filter_map
      (function
        | M.Send
            {
              frame = Shard.F_work cells;
              sent = Some (Supervisor.Lease_granted { attempt; _ });
              _;
            } ->
            Some (List.map (fun c -> c.Shard.c_key) cells, attempt)
        | _ -> None)
      acts
  in
  Alcotest.(check (list (pair (list string) int))) "first lease to a spawn"
    [ ([ "k0" ], 1) ] (sends (step M.Tick));
  Alcotest.(check (list (pair (list string) int))) "the idle member gets the next"
    [ ([ "k1" ], 1) ]
    (sends (step (received 0 (frames (served (List.hd leases))))));
  Alcotest.(check bool) "the failed write drops the member" true
    (step (M.Write_failed { member = 0; frame = work; reason = "EPIPE" })
    = [ M.Drop_member 0 ]);
  Alcotest.(check bool) "the lease is pending, attempt 1" true
    (List.map (fun p -> (p.M.cells, p.M.attempt)) m.M.pending
    = [ (List.nth leases 1, 1) ]);
  let acts = step (M.Eof { member = 0; status = ("exit 0", true) }) in
  Alcotest.(check bool) "no retry" true
    (not
       (List.exists
          (function M.Event (Supervisor.Retry _) -> true | _ -> false)
          acts));
  Alcotest.(check (list (pair (list string) int))) "respawned with attempt 1"
    [ ([ "k1" ], 1) ] (sends acts);
  let ledger = Ledger.create (cells_of 1) in
  let pool = pool_config () in
  let cfg = config ~shards:1 () in
  let m = M.create ~now:0.0 ~pool cfg ledger [ cells_of 1 ] in
  let step input = M.step m ~now:0.0 input in
  ignore (step (M.Accepted { member = 0; peer = "sim" }));
  Alcotest.(check (list (pair (list string) int))) "granted behind the welcome"
    [ ([ "k0" ], 1) ] (sends (step (received 0 hello)));
  let welcome = Shard.F_welcome Shard.protocol_version in
  Alcotest.(check bool) "the failed welcome drops the member" true
    (step (M.Write_failed { member = 0; frame = welcome; reason = "EPIPE" })
    = [ M.Drop_member 0 ]);
  Alcotest.(check bool) "disconnected for the failed write" true
    (step (M.Eof { member = 0; status = ("closed", true) })
    = [
        M.Event
          (Supervisor.Worker_disconnected
             { worker = 0; reason = "write failed" });
      ]);
  Alcotest.(check bool) "that lease is pending, attempt 1" true
    (List.map (fun p -> (p.M.cells, p.M.attempt)) m.M.pending
    = [ (cells_of 1, 1) ])

(* Once the work is done every spawn is told to exit; one that ignores
   it is killed at the heartbeat deadline and reaped. *)
let test_exit_ignored_killed () =
  let ledger = Ledger.create (cells_of 1) in
  let m = M.create ~now:0.0 (config ~shards:1 ()) ledger [ cells_of 1 ] in
  ignore (M.step m ~now:0.0 M.Tick);
  Alcotest.(check bool) "told to exit" true
    (List.mem
       (M.Send { member = 0; frame = Shard.F_exit; sent = None })
       (M.step m ~now:1.0
          (received 0 (frames (served (cells_of 1))))));
  Alcotest.(check (float 1e-9)) "deadline" 31.0 m.M.next_deadline;
  Alcotest.(check bool) "alive at the deadline" true
    (M.step m ~now:31.0 M.Tick = []);
  Alcotest.(check bool) "killed after it" true
    (M.step m ~now:31.5 M.Tick
    = [
        M.Event
          (Supervisor.Kill
             { shard = 0; reason = "heartbeat deadline (30s) expired" });
        M.Kill_member 0;
      ]);
  Alcotest.(check bool) "reaped as a failed exit" true
    (M.step m ~now:31.5 (M.Eof { member = 0; status = ("signal SIGKILL", false) })
    = [
        M.Event
          (Supervisor.Worker_exit
             { shard = 0; status = "signal SIGKILL"; ok = false });
      ]);
  Alcotest.(check bool) "finished" true (M.finished m);
  Alcotest.(check bool) "the cell was kept" true
    (Ledger.finish ~emit:ignore ledger = expected_ok 1)

(* --- bounded exploration ------------------------------------------------ *)

(* Every interleaving of at most two faults over at most three cells in
   at most two leases with at most two members, spawned and dial-in.  A
   fault strikes one grant (one of the first four work orders of the
   run): a crash after the first result (for a dial-in: it never comes
   back), a stall past the heartbeat, garbage, a torn frame or a read
   error after the first result, a result for a cell outside the lease,
   a dial-in disconnect; or it is a poisoned cell that kills every worker leased
   it.  Honest workers send each cell's frames as their own chunk, and
   the order of due chunks is branched on exhaustively (stateless
   replay of the choice trail). *)

let fault_reply ~dial ~n fault cells =
  let first = first_result (List.hd cells) in
  match fault with
  | `Crash -> crash_after_first cells
  | `Stall -> []
  | `Garbage -> [ Out (0.0, first ^ String.make 64 '\xff') ]
  | `Torn ->
      [ Out (0.0, first ^ "\000\000\001");
        (if dial then Drops else Dies ("exit 2", false)) ]
  | `Foreign ->
      let outside =
        List.find
          (fun id -> not (List.exists (fun c -> c.Shard.c_id = id) cells))
          (List.init (n + 1) Fun.id)
      in
      [ Out (0.0, first ^ frames [ Shard.F_result (outside, Json.Str "x") ]) ]
  | `Disconnect -> [ Out (0.0, first); Drops ]
  | `Read_error -> [ Out (0.0, first); Unreadable ]

let fault_name = function
  | `Crash -> "crash" | `Stall -> "stall" | `Garbage -> "garbage"
  | `Torn -> "torn" | `Foreign -> "foreign" | `Disconnect -> "disconnect"
  | `Read_error -> "read-error"

(* Run [once] under every choice trail: the first run takes choice 0
   everywhere, each next one bumps the last choice that has an
   alternative left.  The number of runs. *)
let every_interleaving once =
  let rec go forced runs =
    let trail = ref [] and forced = ref forced in
    once (fun n ->
        let c = match !forced with c :: rest -> forced := rest; c | [] -> 0 in
        trail := (c, n) :: !trail;
        c);
    let rec next = function
      | (c, n) :: older when c + 1 < n ->
          Some (List.rev_map fst ((c + 1, n) :: older))
      | _ :: older -> next older
      | [] -> None
    in
    match next !trail with Some f -> go f (runs + 1) | None -> runs + 1
  in
  go [] 0

(* The invariants every explored run keeps. *)
let check_run label ~faults (w, out) =
  let fail fmt = Printf.ksprintf (fun s -> Alcotest.fail (label ^ ": " ^ s)) fmt in
  (match w.wrong with [] -> () | e :: _ -> fail "%s" e);
  let delivered = List.map fst w.results in
  if List.length (List.sort_uniq compare delivered) <> List.length delivered
  then fail "on_result fired twice for a cell";
  List.iter
    (fun (id, o) ->
      match o with
      | Supervisor.O_ok r ->
          if r <> compute ("k" ^ string_of_int id) then
            fail "cell %d: not the serial payload" id;
          if List.mem id delivered = List.mem id w.fallback then
            fail "cell %d: not recorded exactly once" id
      | Supervisor.O_fault { f_attempts; f_reason; _ } ->
          if f_reason = "supervisor lost track of cell" then
            fail "lost track of cell %d" id;
          if f_attempts <> Supervisor.max_attempts then
            fail "cell %d poisoned after %d attempts" id f_attempts;
          if List.mem id delivered then fail "on_result for poisoned cell %d" id)
    out;
  let retried = function
    | Supervisor.Retry _ | Supervisor.Poisoned _ -> true
    | _ -> false
  in
  if faults = 0 && (w.m.M.aborted <> None || has retried w) then
    fail "a fault-free run retried or fell back"

(* Every plan of at most two faults over [n] cells: faults at two
   distinct grants, or a poisoned cell alone or with one grant fault. *)
let plans ~dial ~n =
  let kinds =
    [ `Crash; `Stall; `Garbage; `Torn; `Foreign; `Read_error ]
    @ if dial then [ `Disconnect ] else []
  in
  let singles =
    List.concat_map (fun g -> List.map (fun k -> (g, k)) kinds) [ 0; 1; 2; 3 ]
  in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if fst a < fst b then Some [ a; b ] else None)
          singles)
      singles
  in
  let at = ([] :: List.map (fun s -> [ s ]) singles) @ pairs in
  List.map (fun a -> (None, a)) at
  @ List.concat_map
      (fun c -> (Some c, []) :: List.map (fun s -> (Some c, [ s ])) singles)
      (List.init n Fun.id)

let test_explorer () =
  let runs = ref 0 in
  let explore ~dial ~members cut (poison, at) =
    let leases =
      List.map (List.map (fun i -> List.nth (cells_of 3) i)) cut
    in
    let n = List.length (List.concat cut) in
    let faults =
      Option.to_list (Option.map (Printf.sprintf "poison %d") poison)
      @ List.map (fun (g, k) -> Printf.sprintf "%s@%d" (fault_name k) g) at
    in
    let label =
      Printf.sprintf "%s, %d members, leases %s, %s"
        (if dial then "dial-in" else "spawned")
        members
        (String.concat "|"
           (List.map (fun l -> String.concat "," (List.map string_of_int l)) cut))
        (if faults = [] then "no fault" else String.concat " " faults)
    in
    let script ~grant ~env_fault:_ cells =
      match poison with
      | Some p when List.exists (fun c -> c.Shard.c_id = p) cells ->
          [ (if dial then Drops else Dies ("signal SIGABRT", false)) ]
      | _ -> (
          match List.assoc_opt grant at with
          | Some k -> fault_reply ~dial ~n k cells
          | None -> serve_cells cells)
    in
    let pool = if dial then Some (pool_config ()) else None in
    runs :=
      !runs
      + every_interleaving (fun choose ->
            check_run label ~faults:(List.length faults)
              (simulate ~choose ?pool ~workers:(if dial then members else 0)
                 (config ~shards:members ()) script leases))
  in
  List.iter
    (fun dial ->
      List.iter
        (fun cut ->
          let n = List.length (List.concat cut) in
          List.iter
            (fun members -> List.iter (explore ~dial ~members cut) (plans ~dial ~n))
            [ 1; 2 ])
        [ [ [ 0 ] ]; [ [ 0; 1 ] ]; [ [ 0 ]; [ 1 ] ]; [ [ 0; 1; 2 ] ];
          [ [ 0; 1 ]; [ 2 ] ]; [ [ 0 ]; [ 1; 2 ] ] ])
    [ false; true ];
  Alcotest.(check bool) "explored" true (!runs > 10_000)

(* --- the shell, end to end --------------------------------------------- *)

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

(* An [on_event] that keeps every event, and the events kept so far. *)
let recorder () =
  let events = ref [] in
  ((fun e -> events := e :: !events), fun () -> List.rev !events)

let both f g e =
  f e;
  g e

let no_fallback _ = Alcotest.fail "fallback must not run in this scenario"

(* Run [f] with process spawning vetoed (PROTEAN_NO_SPAWN).  The variable
   cannot be unset portably; "" reads as unset. *)
let with_no_spawn f =
  let saved = Option.value (Sys.getenv_opt "PROTEAN_NO_SPAWN") ~default:"" in
  Unix.putenv "PROTEAN_NO_SPAWN" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "PROTEAN_NO_SPAWN" saved) f

(* Happy path: two domain-backed workers serve the real worker loop;
   results come back complete and in cell order. *)
let test_supervised_happy_path () =
  let on_event, events = recorder () in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~compute ()
  in
  let out =
    Supervisor.run ~on_event ~spawn (config ()) ~worker_argv:[||]
      ~fallback:no_fallback (chunks 1 5)
  in
  Alcotest.(check bool) "all cells ok, in id order" true (out = expected_ok 5);
  Alcotest.(check int) "one spawn per slot" 2
    (List.length
       (List.filter
          (function Supervisor.Spawn _ -> true | _ -> false)
          (events ())));
  Alcotest.(check bool) "merged event closes the run" true
    (List.exists
       (function Supervisor.Merged { cells = 5; faults = 0 } -> true | _ -> false)
       (events ()))

(* A worker that reports a cell fault over the protocol (the in-process
   exception barrier caught it) poisons just that cell, with no retry:
   the worker itself is healthy. *)
let test_supervised_cellfault_is_final () =
  let on_event, events = recorder () in
  let faulty key =
    if key = "k1" then raise (Failure "simulated Sim_fault") else compute key
  in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~compute:faulty ()
  in
  let out =
    Supervisor.run ~on_event ~spawn
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

(* Exec failure degrades to the in-process fallback for the whole batch;
   the second slot's spawn, due in the same dispatch, is not tried. *)
let test_supervised_spawn_failure_falls_back () =
  let on_event, events = recorder () in
  let tries = ref 0 in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    incr tries;
    failwith "exec ENOENT"
  in
  let fallback cells =
    List.map (fun c -> (c.Shard.c_id, compute c.Shard.c_key)) cells
  in
  let out =
    Supervisor.run ~on_event ~spawn (config ()) ~worker_argv:[||] ~fallback
      (chunks 2 4)
  in
  Alcotest.(check bool) "fallback computed everything" true
    (out = expected_ok 4);
  Alcotest.(check int) "one spawn tried" 1 !tries;
  Alcotest.(check bool) "fallback event emitted" true
    (List.exists
       (function
         | Supervisor.Fallback { reason } -> starts_with "spawn failed" reason
         | _ -> false)
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

(* Stream one good result, then raw garbage bytes whose length prefix is
   absurd: the supervisor must fault structurally ("protocol
   corruption"), kill the worker and keep the result that arrived
   before the corruption.  The worker's lease here is that one cell, so
   nothing waits out a backoff: the slot's replacement (attempt 2) takes
   the next lease at once. *)
let garbage_after_first compute in_r out_w =
  (match Shard.read_frame in_r with
  | Some (Shard.F_work (c :: _)) ->
      Shard.write_frame out_w
        (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key));
      ignore (Unix.write out_w (Bytes.make 64 '\xff') 0 64)
  | _ -> ());
  raise Exit

let test_supervised_garbage_midstream () =
  let on_event, events = recorder () in
  let spawn ~shard:_ ~attempt ~env_fault:_ =
    if attempt = 1 then
      Helpers.domain_transport ~misbehave:(garbage_after_first compute)
        ~compute ()
    else Helpers.domain_transport ~compute ()
  in
  let out =
    Supervisor.run ~on_event ~spawn
      (config ~shards:1 ())
      ~worker_argv:[||] ~fallback:no_fallback
      [ [ List.hd (cells_of 4) ]; List.tl (cells_of 4) ]
  in
  Alcotest.(check bool) "identical to serial despite the corruption" true
    (out = expected_ok 4);
  Alcotest.(check bool) "kill cites protocol corruption" true
    (List.exists
       (function
         | Supervisor.Kill { reason; _ } -> starts_with "protocol corruption" reason
         | _ -> false)
       (events ()));
  Alcotest.(check bool) "the slot respawned" true
    (List.exists
       (function Supervisor.Spawn { attempt = 2; _ } -> true | _ -> false)
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
  let on_event, events = recorder () in
  let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
    Helpers.domain_transport ~misbehave:(dribble_with_heartbeats compute)
      ~compute ()
  in
  let out =
    Supervisor.run ~on_event ~spawn
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

(* An [on_event] that starts [n] dial-in workers — real
   [Shard.connect_worker] loops on domains — as soon as the pool
   announces its bound port, and a join function yielding each worker's
   terminal outcome ([None] = clean F_exit, [Some e] = raised, or
   [Some (Failure reason)] for an [Error]). *)
let dialers ?(token = "protean") n =
  let domains = ref [] in
  let on_event = function
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
    | _ -> ()
  in
  let join () =
    let outcomes = List.map Domain.join !domains in
    (* connect_worker rewired the global log sink to its (now closed)
       connection; put stderr back for the rest of the suite. *)
    Protean_telemetry.Log.reset_sink ();
    outcomes
  in
  (on_event, join)

(* Happy path: two remote workers dial in, lease work, and the merged
   output is byte-identical to the serial run. *)
let test_pool_happy_path () =
  let record, events = recorder () in
  let dial, join = dialers 2 in
  let out =
    Supervisor.run ~on_event:(both record dial) (config ()) ~pool:(pool_config ())
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
  let record, events = recorder () in
  let bad, join_bad = dialers ~token:"WRONG" 1 in
  let good, join_good = dialers 1 in
  let out =
    Supervisor.run
      ~on_event:(both record (both bad good))
      (config ()) ~pool:(pool_config ()) ~fallback:no_fallback (chunks 2 4)
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
  let reply = ref None in
  let archaic = function
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
    | _ -> ()
  in
  let dial, join = dialers 1 in
  let out =
    Supervisor.run ~on_event:(both archaic dial) (config ())
      ~pool:(pool_config ()) ~fallback:no_fallback (chunks 2 3)
  in
  ignore (join ());
  Alcotest.(check bool) "campaign unaffected" true (out = expected_ok 3);
  match !reply with
  | Some (Shard.F_reject reason) ->
      Alcotest.(check bool) "reason names the version skew" true
        (starts_with "protocol version" reason)
  | _ -> Alcotest.fail "version-skewed hello was not rejected"

(* A hand-driven dial-in worker: handshake, then for each lease ask
   [script] (given the running lease count and the cells) whether to
   serve it or to send a forged frame after its results, before its
   [done].  Redials a lost connection; ends on [F_exit] or when the
   supervisor is gone. *)
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
          | Some (Shard.F_work cells) ->
              incr leases;
              List.iter
                (fun c ->
                  Shard.write_frame sock
                    (Shard.F_result (c.Shard.c_id, compute c.Shard.c_key)))
                cells;
              (match script !leases cells with
              | `Forge frame -> Shard.write_frame sock frame
              | `Serve -> ());
              Shard.write_frame sock Shard.F_done;
              serve ()
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

(* An outcome counts only from the member leasing its cell: a dial-in
   worker that reports a result for another lease's cell, or a fault for
   a cell the campaign does not have, is dropped as corrupt, leaving no
   trace in the merge, the fault count or [on_result]; it redials and
   serves the rest. *)
let test_pool_rejects_foreign_cells () =
  List.iter
    (fun forged ->
      let record, events = recorder () in
      let worker = ref None in
      let dial = function
        | Supervisor.Listening { port; _ } ->
            let addr = Printf.sprintf "127.0.0.1:%d" port in
            worker :=
              Some
                (Domain.spawn (fun () ->
                     scripted_dialer ~addr (fun n _ ->
                         if n = 1 then `Forge forged else `Serve)))
        | _ -> ()
      in
      let seen = ref [] in
      let out =
        Supervisor.run ~on_event:(both record dial)
          ~pool:(pool_config ())
          (config ~shards:1 ())
          ~on_result:(fun id r -> seen := (id, r) :: !seen)
          ~fallback:no_fallback (chunks 2 4)
      in
      Option.iter Domain.join !worker;
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
                 starts_with "protocol corruption" reason
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
  let record, events = recorder () in
  let reply = ref None and worker = ref None in
  (* One domain, in order: the mismatched hello, then a worker of the
     supervisor's campaign — so the campaign cannot finish before the
     rejection. *)
  let dial = function
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
    | _ -> ()
  in
  let out =
    Supervisor.run ~on_event:(both record dial) (config ())
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
    let on_event, events = recorder () in
    let spawn ~shard:_ ~attempt:_ ~env_fault:_ =
      Alcotest.fail "no transport may be created under PROTEAN_NO_SPAWN"
    in
    let fallback cells =
      List.map (fun c -> (c.Shard.c_id, compute c.Shard.c_key)) cells
    in
    let out =
      Supervisor.run ~on_event ~spawn (config ()) ~worker_argv:[||] ~fallback
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
    Alcotest.test_case "supervised happy path" `Quick test_supervised_happy_path;
    Alcotest.test_case "idle members take lease after lease" `Quick
      test_balance;
    Alcotest.test_case "slots respawn; one-shot faults arm the first spawn"
      `Quick test_slots_and_fault_arming;
    Alcotest.test_case "crash mid-shard retried, results kept" `Quick
      test_crash_then_recover;
    Alcotest.test_case "poisoned cell bisected to a structured fault" `Quick
      test_poisoned_cell_bisected;
    Alcotest.test_case "results reach on_result once, poisoned cells never"
      `Quick test_on_result_once;
    Alcotest.test_case "heartbeat deadline kills and recovers" `Quick
      test_heartbeat_kill_recovers;
    Alcotest.test_case "wall budget expires while heartbeats arrive" `Quick
      test_wall_budget;
    Alcotest.test_case "handshake deadline drops a silent dial-in" `Quick
      test_handshake_deadline;
    Alcotest.test_case "a failed write at grant keeps the lease's attempt"
      `Quick test_write_failure_at_grant;
    Alcotest.test_case "a spawn ignoring exit is killed at the deadline" `Quick
      test_exit_ignored_killed;
    Alcotest.test_case "bounded explorer: faults x interleavings" `Quick
      test_explorer;
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
