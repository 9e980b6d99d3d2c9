(* Transport-layer tests: the [Shard.Transport] seam shared by pipe and
   TCP workers, address parsing, frame-size caps, network fault
   injection semantics, syscall hygiene (EINTR retry, SIGPIPE
   suppression), and the /metrics HTTP listener.  Everything here runs
   in-process over pipes / socketpairs — no real network peers. *)

module Shard = Protean_harness.Shard
module Json = Protean_harness.Shard.Json
module Fault_inject = Protean_defense.Fault_inject
module Http_listener = Protean_telemetry.Http_listener
module Transport = Shard.Transport

(* --- address parsing --------------------------------------------------- *)

let test_sockaddr_parsing () =
  let ip, port = Shard.sockaddr_of_string "127.0.0.1:8080" in
  Alcotest.(check string) "numeric host" "127.0.0.1"
    (Unix.string_of_inet_addr ip);
  Alcotest.(check int) "port" 8080 port;
  let _, p0 = Shard.sockaddr_of_string "0.0.0.0:0" in
  Alcotest.(check int) "port 0 allowed (ephemeral)" 0 p0;
  List.iter
    (fun s ->
      match Shard.sockaddr_of_string s with
      | _ -> Alcotest.fail (Printf.sprintf "accepted bad address %S" s)
      | exception Invalid_argument _ -> ())
    [ "no-port"; "127.0.0.1:badport"; "127.0.0.1:70000"; "127.0.0.1:-1" ]

(* --- handshake frame codec --------------------------------------------- *)

let test_handshake_frames_roundtrip () =
  List.iter
    (fun f ->
      let b = Shard.encode_frame f in
      let dec = Shard.Decoder.create () in
      Shard.Decoder.feed dec b 0 (Bytes.length b);
      Alcotest.(check bool) "handshake frame round-trips" true
        (Shard.Decoder.next dec = Some f))
    [
      Shard.F_hello
        {
          h_version = 1;
          h_token = "secret";
          h_campaign = "protean_sim.exe -b milc --check-certs";
        };
      Shard.F_hello { h_version = 99; h_token = ""; h_campaign = "" };
      Shard.F_welcome 1;
      Shard.F_reject "bad campaign token";
    ]

(* --- transport round-trips --------------------------------------------- *)

let with_pipe_transport ?fault f =
  Transport.fault_spent := false;
  let r, w = Unix.pipe ~cloexec:false () in
  let tr = Transport.of_fds ?fault ~input:r ~output:w () in
  Fun.protect
    ~finally:(fun () ->
      Transport.fault_spent := false;
      Transport.close tr)
    (fun () -> f tr r w)

(* A transport writing into its own pipe: what [send] puts on the wire
   is exactly what [recv] yields, for every frame shape. *)
let test_transport_roundtrip_pipe () =
  with_pipe_transport (fun tr _r _w ->
      let frames =
        [
          Shard.F_work [ { Shard.c_id = 1; c_key = "milc" } ];
          Shard.F_hb 1;
          Shard.F_result (1, Json.Obj [ ("v", Json.Int 42) ]);
          Shard.F_done;
        ]
      in
      List.iter (Transport.send tr) frames;
      List.iter
        (fun f ->
          Alcotest.(check bool) "frame received intact" true
            (Transport.recv tr = Some f))
        frames;
      Alcotest.(check bool) "pipe transport is not a socket" true
        (not tr.Transport.tr_socket))

(* Over a socketpair the same fd serves both directions; the transport
   must classify itself as a socket (half-close via shutdown). *)
let test_transport_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Transport.fault_spent := false;
  let tra = Transport.of_fds ~desc:"sock" ~input:a ~output:a () in
  let trb = Transport.of_fds ~desc:"sock" ~input:b ~output:b () in
  Fun.protect
    ~finally:(fun () ->
      Transport.close tra;
      Transport.close trb)
    (fun () ->
      Alcotest.(check bool) "socket transport detected" true
        tra.Transport.tr_socket;
      Transport.send tra (Shard.F_hb 7);
      Alcotest.(check bool) "frame crosses the socketpair" true
        (Transport.recv trb = Some (Shard.F_hb 7));
      (* Half-close: [shutdown_send] ends our writes but the peer's
         reads see a clean EOF, not an error. *)
      Transport.shutdown_send tra;
      Alcotest.(check bool) "half-close reads as EOF" true
        (Transport.recv trb = None))

(* --- frame-size cap ---------------------------------------------------- *)

let prefix_of len =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  b

(* The decoder must fault on an oversized length prefix as soon as the
   prefix arrives — before any payload shows up, so a hostile or
   corrupt peer cannot make it allocate the promised gigabytes. *)
let test_decoder_rejects_oversized_frame () =
  let dec = Shard.Decoder.create ~max_frame:1024 () in
  let b = prefix_of 4096 in
  Shard.Decoder.feed dec b 0 4;
  (match Shard.Decoder.next dec with
  | _ -> Alcotest.fail "oversized frame accepted"
  | exception Shard.Protocol msg ->
      Alcotest.(check bool) "error names the cap" true
        (String.length msg > 0));
  (* An all-ones prefix — what NF_garbage puts on the wire — is far
     beyond even the default cap. *)
  let dec = Shard.Decoder.create () in
  Shard.Decoder.feed dec (Bytes.make 8 '\xff') 0 8;
  (match Shard.Decoder.next dec with
  | _ -> Alcotest.fail "garbage prefix accepted"
  | exception Shard.Protocol _ -> ());
  (* At or under the cap still decodes. *)
  let dec = Shard.Decoder.create ~max_frame:1024 () in
  let b = Shard.encode_frame (Shard.F_hb 3) in
  Shard.Decoder.feed dec b 0 (Bytes.length b);
  Alcotest.(check bool) "frame under the cap decodes" true
    (Shard.Decoder.next dec = Some (Shard.F_hb 3))

let test_read_frame_rejects_oversized_frame () =
  let r, w = Unix.pipe ~cloexec:false () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let b = prefix_of (2 * 1024 * 1024) in
      ignore (Unix.write w b 0 4);
      match Shard.read_frame ~max_frame:1024 r with
      | _ -> Alcotest.fail "blocking reader accepted oversized frame"
      | exception Shard.Protocol _ -> ())

(* --- network fault modes ----------------------------------------------- *)

let test_net_mode_of_string () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Fault_inject.net_mode_name m ^ " round-trips")
        true
        (Fault_inject.net_mode_of_string (Fault_inject.net_mode_name m) = m))
    [
      Fault_inject.NF_drop 2;
      Fault_inject.NF_garbage 1;
      Fault_inject.NF_delay 0.5;
      Fault_inject.NF_half_close 3;
      Fault_inject.NF_short_write 1;
    ];
  List.iter
    (fun s ->
      match Fault_inject.net_mode_of_string s with
      | _ -> Alcotest.fail (Printf.sprintf "accepted bad mode %S" s)
      | exception Invalid_argument _ -> ())
    [ "net-drop:0"; "net-drop:x"; "net-delay:-1"; "worker-kill"; "" ]

(* NF_drop: the nth frame vanishes; neighbours are untouched and the
   fault is spent (exactly-once per process). *)
let test_net_fault_drop () =
  with_pipe_transport ~fault:(Fault_inject.NF_drop 2) (fun tr _r _w ->
      Transport.send tr (Shard.F_hb 1);
      Transport.send tr (Shard.F_hb 2);
      (* dropped *)
      Transport.send tr (Shard.F_hb 3);
      Alcotest.(check bool) "frame 1 arrives" true
        (Transport.recv tr = Some (Shard.F_hb 1));
      Alcotest.(check bool) "frame 2 dropped, frame 3 next" true
        (Transport.recv tr = Some (Shard.F_hb 3));
      Alcotest.(check bool) "fault spent after firing" true
        !Transport.fault_spent)

(* NF_garbage: the peer faults structurally (oversized prefix), it does
   not allocate or misparse. *)
let test_net_fault_garbage () =
  with_pipe_transport ~fault:(Fault_inject.NF_garbage 1) (fun tr r _w ->
      Transport.send tr (Shard.F_hb 1);
      let dec = Shard.Decoder.create () in
      let buf = Bytes.create 4096 in
      let k = Unix.read r buf 0 (Bytes.length buf) in
      Shard.Decoder.feed dec buf 0 k;
      match Shard.Decoder.next dec with
      | _ -> Alcotest.fail "garbage bytes decoded as a frame"
      | exception Shard.Protocol _ -> ())

(* NF_half_close: the peer sees EOF from that frame on. *)
let test_net_fault_half_close () =
  with_pipe_transport ~fault:(Fault_inject.NF_half_close 2) (fun tr _r _w ->
      Transport.send tr (Shard.F_hb 1);
      Transport.send tr (Shard.F_hb 2);
      Alcotest.(check bool) "frame 1 arrives" true
        (Transport.recv tr = Some (Shard.F_hb 1));
      Alcotest.(check bool) "then EOF" true (Transport.recv tr = None))

(* NF_short_write: a few bytes of a real frame, then EOF — the reader
   must report a truncation fault, not hang or misparse. *)
let test_net_fault_short_write () =
  with_pipe_transport ~fault:(Fault_inject.NF_short_write 1) (fun tr _r _w ->
      Transport.send tr (Shard.F_hb 1);
      match Transport.recv tr with
      | _ -> Alcotest.fail "short write parsed as a frame"
      | exception Shard.Protocol _ -> ())

(* NF_delay delivers everything (slowly); it is the one mode that does
   not spend itself. *)
let test_net_fault_delay () =
  with_pipe_transport ~fault:(Fault_inject.NF_delay 0.01) (fun tr _r _w ->
      Transport.send tr (Shard.F_hb 1);
      Transport.send tr (Shard.F_hb 2);
      Alcotest.(check bool) "delayed frames still arrive" true
        (Transport.recv tr = Some (Shard.F_hb 1)
        && Transport.recv tr = Some (Shard.F_hb 2));
      Alcotest.(check bool) "delay is not one-shot" true
        (not !Transport.fault_spent))

(* --- syscall hygiene --------------------------------------------------- *)

let test_retry_intr () =
  let attempts = ref 0 in
  let v =
    Shard.retry_intr (fun () ->
        incr attempts;
        if !attempts < 3 then raise (Unix.Unix_error (Unix.EINTR, "read", ""))
        else if !attempts < 4 then
          raise (Unix.Unix_error (Unix.EAGAIN, "read", ""))
        else 42)
  in
  Alcotest.(check int) "value returned after retries" 42 v;
  Alcotest.(check int) "EINTR and EAGAIN both retried" 4 !attempts;
  (* Other errors pass straight through. *)
  match Shard.retry_intr (fun () -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))) with
  | _ -> Alcotest.fail "EPIPE must not be retried"
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()

(* A frame write to a dead peer must raise EPIPE — recoverable by the
   supervisor's requeue path — rather than killing the process with
   SIGPIPE.  This is the worker-SIGKILLed-mid-write regression. *)
let test_sigpipe_write_to_dead_peer () =
  Shard.ignore_sigpipe ();
  let r, w = Unix.pipe ~cloexec:false () in
  Unix.close r;
  Fun.protect
    ~finally:(fun () -> try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      match Shard.write_frame w (Shard.F_hb 1) with
      | () -> Alcotest.fail "write to closed pipe succeeded"
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ())

(* --- /metrics HTTP listener -------------------------------------------- *)

(* Drive the listener the way its owner would: select on [fds], feed
   the readable set to [handle], until the client socket answers. *)
let http_request listener request =
  let sock = Shard.dial (Printf.sprintf "127.0.0.1:%d" (Http_listener.port listener)) in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.of_string request in
      ignore (Unix.write sock b 0 (Bytes.length b));
      let buf = Buffer.create 1024 in
      let scratch = Bytes.create 1024 in
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec pump () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "http listener never answered";
        let fds = sock :: Http_listener.fds listener in
        let readable, _, _ = Unix.select fds [] [] 0.25 in
        Http_listener.handle listener
          (List.filter (fun fd -> not (fd == sock)) readable);
        if List.memq sock readable then begin
          match Unix.read sock scratch 0 (Bytes.length scratch) with
          | 0 -> Buffer.contents buf
          | k ->
              Buffer.add_subbytes buf scratch 0 k;
              pump ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
              Buffer.contents buf
        end
        else pump ()
      in
      pump ())

let test_http_metrics_endpoint () =
  let listener =
    Http_listener.create ~addr:"127.0.0.1:0" (fun () ->
        "# TYPE protean_cells_total counter\nprotean_cells_total 5\n")
  in
  Fun.protect
    ~finally:(fun () -> Http_listener.close listener)
    (fun () ->
      Alcotest.(check bool) "ephemeral port bound" true
        (Http_listener.port listener > 0);
      let resp = http_request listener "GET /metrics HTTP/1.0\r\n\r\n" in
      let has needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "200 OK" true (has "HTTP/1.0 200 OK" resp);
      Alcotest.(check bool) "prometheus content type" true
        (has "Content-Type: text/plain; version=0.0.4" resp);
      Alcotest.(check bool) "body is the exposition" true
        (has "protean_cells_total 5" resp);
      let resp404 = http_request listener "GET /nope HTTP/1.0\r\n\r\n" in
      Alcotest.(check bool) "unknown path is 404" true
        (has "404 Not Found" resp404);
      let resp400 = http_request listener "BREW /coffee HTTP/1.0\r\n\r\n" in
      Alcotest.(check bool) "non-GET is 400" true (has "400 Bad Request" resp400);
      (* A second scrape works: the listener survives its clients. *)
      let again = http_request listener "GET /metrics HTTP/1.0\r\n\r\n" in
      Alcotest.(check bool) "listener survives across scrapes" true
        (has "200 OK" again))

(* --- pool-level fault injection ---------------------------------------- *)

(* The in-process mode tests above pin down per-frame semantics; these
   drive the remaining PROTEAN_NET_FAULT modes (delay, half-close)
   through a real TCP worker pool and assert the supervisor's lease
   re-dispatch keeps the merged output byte-identical to a serial run —
   the same acceptance bar the drop/garbage modes already meet in the
   supervisor suite. *)

module Supervisor = Protean_harness.Supervisor

let pool_compute key = Json.Obj [ ("v", Json.Str ("computed:" ^ key)) ]

let pool_cells n =
  List.init n (fun i -> { Shard.c_id = i; c_key = "k" ^ string_of_int i })

let pool_expected n =
  List.init n (fun i ->
      ( i,
        Supervisor.O_ok
          (Json.Obj [ ("v", Json.Str (Printf.sprintf "computed:k%d" i)) ]) ))

let pool_no_fallback _ = Alcotest.fail "fallback must not run in this scenario"

let pool_sup_config () =
  {
    Supervisor.default_config with
    Supervisor.shards = 1;
    max_attempts = 2;
    heartbeat = 30.0;
    wall = 60.0;
    backoff = 0.01;
  }

let pool_config () =
  {
    Supervisor.default_pool_config with
    Supervisor.pl_listen = "127.0.0.1:0";
    pl_accept_wall = 30.0;
  }

let pool_record_events bus =
  let events = ref [] in
  Supervisor.subscribe bus ~name:"record" (fun e -> events := e :: !events);
  fun () -> List.rev !events

(* One real dial-in worker on a domain, started as soon as the pool
   announces its port; join returns its terminal outcome. *)
let pool_dialer bus =
  let domain = ref None in
  Supervisor.subscribe bus ~name:"dialer" (function
    | Supervisor.Listening { port; _ } ->
        let addr = Printf.sprintf "127.0.0.1:%d" port in
        domain :=
          Some
            (Domain.spawn (fun () ->
                 match
                   Shard.connect_worker ~reconnect:8 ~backoff:0.05 ~addr
                     ~token:"protean" ~compute:pool_compute ()
                 with
                 | () -> None
                 | exception e -> Some e))
    | _ -> ());
  fun () ->
    let outcome = Option.map Domain.join !domain in
    (* connect_worker rewired the global log sink to its (now closed)
       connection; put stderr back for the rest of the suite. *)
    Protean_telemetry.Log.reset_sink ();
    outcome

let with_net_fault mode f =
  Unix.putenv Fault_inject.net_env mode;
  Transport.fault_spent := false;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Fault_inject.net_env "";
      Transport.fault_spent := false)
    f

(* net-delay throttles every frame on the wire but loses none: the
   campaign completes without any re-dispatch, byte-identical. *)
let test_pool_delay_byte_identical () =
  with_net_fault "net-delay:0.02" (fun () ->
      let bus = Supervisor.create_bus () in
      let events = pool_record_events bus in
      let join = pool_dialer bus in
      let out =
        Supervisor.run ~bus (pool_sup_config ()) ~pool:(pool_config ())
          ~fallback:pool_no_fallback (pool_cells 4)
      in
      Alcotest.(check bool) "worker exits cleanly" true (join () = Some None);
      Alcotest.(check bool) "identical to serial despite the delay" true
        (out = pool_expected 4);
      Alcotest.(check bool) "no cell was poisoned" true
        (not
           (List.exists
              (function Supervisor.Poisoned _ -> true | _ -> false)
              (events ()))))

(* net-half-close silently ends the worker's sends mid-lease: the
   supervisor sees a clean EOF, re-dispatches the lease, the worker
   redials (its one-shot fault now spent), and the merged output is
   still byte-identical to the serial run. *)
let test_pool_half_close_redispatches () =
  with_net_fault "net-half-close:2" (fun () ->
      let bus = Supervisor.create_bus () in
      let events = pool_record_events bus in
      let join = pool_dialer bus in
      let out =
        Supervisor.run ~bus (pool_sup_config ()) ~pool:(pool_config ())
          ~fallback:pool_no_fallback (pool_cells 4)
      in
      Alcotest.(check bool) "worker exits cleanly after redial" true
        (join () = Some None);
      Alcotest.(check bool) "identical to serial despite the half-close" true
        (out = pool_expected 4);
      Alcotest.(check bool) "worker loss observed" true
        (List.exists
           (function Supervisor.Worker_disconnected _ -> true | _ -> false)
           (events ()));
      Alcotest.(check bool) "lease re-dispatched" true
        (List.exists
           (function
             | Supervisor.Retry _ | Supervisor.Bisect _ -> true
             | _ -> false)
           (events ())))

let tests =
  [
    Alcotest.test_case "sockaddr parsing" `Quick test_sockaddr_parsing;
    Alcotest.test_case "handshake frames round-trip" `Quick
      test_handshake_frames_roundtrip;
    Alcotest.test_case "transport round-trip over a pipe" `Quick
      test_transport_roundtrip_pipe;
    Alcotest.test_case "transport over a socketpair, half-close" `Quick
      test_transport_socketpair;
    Alcotest.test_case "decoder rejects oversized frames" `Quick
      test_decoder_rejects_oversized_frame;
    Alcotest.test_case "blocking reader rejects oversized frames" `Quick
      test_read_frame_rejects_oversized_frame;
    Alcotest.test_case "net fault mode parsing" `Quick test_net_mode_of_string;
    Alcotest.test_case "net fault: drop" `Quick test_net_fault_drop;
    Alcotest.test_case "net fault: garbage" `Quick test_net_fault_garbage;
    Alcotest.test_case "net fault: half-close" `Quick test_net_fault_half_close;
    Alcotest.test_case "net fault: short write" `Quick
      test_net_fault_short_write;
    Alcotest.test_case "net fault: delay" `Quick test_net_fault_delay;
    Alcotest.test_case "retry_intr retries EINTR/EAGAIN only" `Quick
      test_retry_intr;
    Alcotest.test_case "write to dead peer raises EPIPE, not SIGPIPE" `Quick
      test_sigpipe_write_to_dead_peer;
    Alcotest.test_case "/metrics http listener" `Quick
      test_http_metrics_endpoint;
    Alcotest.test_case "pool survives net-delay byte-identically" `Quick
      test_pool_delay_byte_identical;
    Alcotest.test_case "pool re-dispatches after net-half-close" `Quick
      test_pool_half_close_redispatches;
  ]
