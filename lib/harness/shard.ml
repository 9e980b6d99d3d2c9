(* Worker half of the supervised-execution layer (the supervisor half
   is {!Supervisor}): a shard worker is a separate OS process that
   receives a batch of cell ids over a pipe, computes them, and streams
   results back, so that a segfault, OOM kill or runaway cell takes
   down one worker instead of the whole grid.

   The wire protocol is length-prefixed JSON frames on stdin/stdout
   (stdout is therefore *owned* by the protocol in worker mode — all
   worker diagnostics are routed through [F_log] frames instead of a
   shared stderr, so per-worker output never interleaves mid-line):

     <4-byte big-endian payload length> <payload: one JSON object>

   supervisor -> worker
     {"t":"work","cells":[{"id":I,"key":S},...]}   the shard's batch
     {"t":"exit"}                                  drain and terminate
     {"t":"welcome","v":I}        TCP pool: handshake accepted
     {"t":"reject","reason":S}    TCP pool: handshake refused

   worker -> supervisor
     {"t":"hello","v":I,"token":S,"campaign":S}
                                  TCP pool: dial-in handshake (protocol
                                  version, campaign token and the
                                  worker's [Campaign.identity])
     {"t":"hb","next":I}          about to compute cell id I (liveness)
     {"t":"result","id":I,"r":J}  cell I computed, payload J
     {"t":"cellfault","id":I,"reason":S}
                                  cell I raised in-process (structured
                                  fault: no retry/bisection needed)
     {"t":"log","line":S}         a diagnostic line for the run log
     {"t":"done"}                 batch complete, worker exits 0

   The same frames run over pipes (local [--shards N] workers on
   stdin/stdout) and TCP sockets (remote [--connect] workers dialing a
   [--listen] supervisor); {!Transport} abstracts the seam, and is also
   where network fault injection ({!Fault_inject.net_mode}) corrupts
   the byte stream for chaos tests.

   Cells are identified by a dense global id (their index in the
   deterministic, key-sorted cell list that both supervisor and worker
   enumerate independently) plus the key itself as a cross-check: a
   worker that cannot resolve a key reports a cellfault rather than
   computing the wrong cell.

   Worker-level fault injection ([Protean_defense.Fault_inject]'s
   [worker_mode], armed via the [worker_env] environment variable) is
   implemented here so the supervisor's recovery paths are self-tested
   end-to-end with real processes. *)

module Fault_inject = Protean_defense.Fault_inject

(* The frame payload codec ({!Protean_telemetry.Json}), re-exported
   under its historical name. *)
module Json = Protean_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Syscall hygiene                                                     *)
(* ------------------------------------------------------------------ *)

(* Retry barrier for the slow syscalls the frame protocol rests on:
   a stray signal (SIGCHLD from a reaped worker, a profiler's SIGPROF)
   interrupting [read]/[write]/[select] must never abort a campaign.
   EAGAIN is retried too — all protocol fds are blocking, so it can
   only mean a transient kernel condition, never a spin. *)
let rec retry_intr f =
  try f ()
  with Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> retry_intr f

(* A frame write to a dead peer (worker SIGKILLed, TCP connection
   reset) must surface as [Unix_error EPIPE] — recoverable by the
   supervisor's requeue logic — not deliver a process-killing SIGPIPE.
   Installed by every protocol endpoint (supervisor loops, worker
   loops); idempotent. *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------------ *)
(* Length-prefixed frames                                              *)
(* ------------------------------------------------------------------ *)

(* Version of the frame protocol, exchanged in the TCP pool handshake:
   a worker built from a different protocol generation is rejected at
   dial-in instead of corrupting a campaign mid-run. *)
let protocol_version = 3

(* Structured protocol fault: the stream violated the framing rules
   (oversized or negative length prefix, truncated payload).  Distinct
   from [Json.Parse] (payload corruption) so callers can report which
   layer failed; supervisors treat both as a dead peer. *)
exception Protocol of string

let protocol_error fmt = Printf.ksprintf (fun s -> raise (Protocol s)) fmt

type cell = { c_id : int; c_key : string }

type frame =
  | F_work of cell list
  | F_exit
  | F_hello of { h_version : int; h_token : string; h_campaign : string }
  | F_welcome of int (* the supervisor's protocol version *)
  | F_reject of string
  | F_hb of int (* next cell id the worker is about to compute *)
  | F_result of int * Json.t
  | F_cellfault of { fc_id : int; fc_reason : string }
  | F_log of string
  | F_done

let frame_to_json = function
  | F_work cells ->
      Json.Obj
        [
          ("t", Json.Str "work");
          ( "cells",
            Json.List
              (List.map
                 (fun c ->
                   Json.Obj
                     [ ("id", Json.Int c.c_id); ("key", Json.Str c.c_key) ])
                 cells) );
        ]
  | F_exit -> Json.Obj [ ("t", Json.Str "exit") ]
  | F_hello { h_version; h_token; h_campaign } ->
      Json.Obj
        [
          ("t", Json.Str "hello");
          ("v", Json.Int h_version);
          ("token", Json.Str h_token);
          ("campaign", Json.Str h_campaign);
        ]
  | F_welcome v -> Json.Obj [ ("t", Json.Str "welcome"); ("v", Json.Int v) ]
  | F_reject reason ->
      Json.Obj [ ("t", Json.Str "reject"); ("reason", Json.Str reason) ]
  | F_hb next -> Json.Obj [ ("t", Json.Str "hb"); ("next", Json.Int next) ]
  | F_result (id, r) ->
      Json.Obj [ ("t", Json.Str "result"); ("id", Json.Int id); ("r", r) ]
  | F_cellfault { fc_id; fc_reason } ->
      Json.Obj
        [
          ("t", Json.Str "cellfault");
          ("id", Json.Int fc_id);
          ("reason", Json.Str fc_reason);
        ]
  | F_log line -> Json.Obj [ ("t", Json.Str "log"); ("line", Json.Str line) ]
  | F_done -> Json.Obj [ ("t", Json.Str "done") ]

let frame_of_json j =
  match Json.(to_str (member "t" j)) with
  | "work" ->
      F_work
        (List.map
           (fun c ->
             {
               c_id = Json.(to_int (member "id" c));
               c_key = Json.(to_str (member "key" c));
             })
           Json.(to_list (member "cells" j)))
  | "exit" -> F_exit
  | "hello" ->
      F_hello
        {
          h_version = Json.(to_int (member "v" j));
          h_token = Json.(to_str (member "token" j));
          (* absent from older protocol generations, which the version
             check turns away *)
          h_campaign =
            (match Json.member "campaign" j with Json.Str c -> c | _ -> "");
        }
  | "welcome" -> F_welcome Json.(to_int (member "v" j))
  | "reject" -> F_reject Json.(to_str (member "reason" j))
  | "hb" -> F_hb Json.(to_int (member "next" j))
  | "result" -> F_result (Json.(to_int (member "id" j)), Json.member "r" j)
  | "cellfault" ->
      F_cellfault
        {
          fc_id = Json.(to_int (member "id" j));
          fc_reason = Json.(to_str (member "reason" j));
        }
  | "log" -> F_log Json.(to_str (member "line" j))
  | "done" -> F_done
  | t -> Json.parse_error "unknown frame type %s" t

(* A frame payload larger than this is a protocol error (a corrupted
   or malicious length prefix would otherwise make the reader allocate
   and then block on gigabytes).  This is the default cap; decoders and
   blocking readers accept a tighter [?max_frame] so transports exposed
   to untrusted networks can bound their allocation budget. *)
let default_max_frame = 64 * 1024 * 1024

let check_frame_len ~cap len =
  if len < 0 || len > cap then
    protocol_error "frame length %d out of range (cap %d)" len cap

let encode_frame frame =
  let payload = Json.to_string (frame_to_json frame) in
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b 4 len;
  b

(* Frame writes from a worker happen on multiple domains (log lines from
   parallel cell computations), so they are serialized; a single
   [Unix.write] of the whole frame also keeps a SIGKILL from splitting a
   frame across the pipe except at its very end — which the decoder
   rejects as truncated. *)
let write_lock = Mutex.create ()

let write_frame fd frame =
  let b = encode_frame frame in
  Mutex.lock write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock write_lock)
    (fun () ->
      let len = Bytes.length b in
      let off = ref 0 in
      while !off < len do
        off := !off + retry_intr (fun () -> Unix.write fd b !off (len - !off))
      done)

(* Blocking frame read (worker side; the supervisor uses the incremental
   [Decoder] below).  Returns [None] on clean EOF. *)
let read_frame ?(max_frame = default_max_frame) fd =
  let read_upto buf off len =
    let got = ref 0 in
    let eof = ref false in
    while (not !eof) && !got < len do
      let k = retry_intr (fun () -> Unix.read fd buf (off + !got) (len - !got)) in
      if k = 0 then eof := true else got := !got + k
    done;
    !got
  in
  let hdr = Bytes.create 4 in
  match read_upto hdr 0 4 with
  | 0 -> None (* clean EOF: no frame had started *)
  | k when k < 4 -> protocol_error "truncated frame header (%d of 4 bytes)" k
  | _ ->
      let len =
        (Char.code (Bytes.get hdr 0) lsl 24)
        lor (Char.code (Bytes.get hdr 1) lsl 16)
        lor (Char.code (Bytes.get hdr 2) lsl 8)
        lor Char.code (Bytes.get hdr 3)
      in
      check_frame_len ~cap:max_frame len;
      let payload = Bytes.create len in
      let got = read_upto payload 0 len in
      if got <> len then
        protocol_error "truncated frame (%d of %d payload bytes)" got len;
      Some (frame_of_json (Json.of_string (Bytes.to_string payload)))

(* Incremental decoder for the supervisor's select loop: feed whatever
   bytes arrived, pop the complete frames. *)
module Decoder = struct
  type t = { mutable buf : Bytes.t; mutable len : int; cap : int }

  let create ?(max_frame = default_max_frame) () =
    { buf = Bytes.create 4096; len = 0; cap = max_frame }

  let feed t bytes off count =
    if t.len + count > Bytes.length t.buf then begin
      let cap = ref (max 4096 (Bytes.length t.buf)) in
      while t.len + count > !cap do
        cap := !cap * 2
      done;
      let buf = Bytes.create !cap in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    Bytes.blit bytes off t.buf t.len count;
    t.len <- t.len + count

  (* [Some frame] per complete frame; raises [Protocol] on a corrupt
     prefix and [Json.Parse] on a corrupt payload (the supervisor treats
     either as a dead worker).  The length check fires as soon as the
     4-byte prefix arrives — *before* any payload allocation — so a
     corrupt or malicious prefix cannot drive an unbounded [Bytes]
     allocation. *)
  let next t =
    if t.len < 4 then None
    else begin
      let len =
        (Char.code (Bytes.get t.buf 0) lsl 24)
        lor (Char.code (Bytes.get t.buf 1) lsl 16)
        lor (Char.code (Bytes.get t.buf 2) lsl 8)
        lor Char.code (Bytes.get t.buf 3)
      in
      check_frame_len ~cap:t.cap len;
      if t.len < 4 + len then None
      else begin
        let payload = Bytes.sub_string t.buf 4 len in
        Bytes.blit t.buf (4 + len) t.buf 0 (t.len - 4 - len);
        t.len <- t.len - 4 - len;
        Some (frame_of_json (Json.of_string payload))
      end
    end

  (* Bytes sitting in the buffer that do not form a complete frame —
     non-zero after EOF means the worker died mid-write. *)
  let pending_bytes t = t.len
end

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(* A frame endpoint over a pair of file descriptors: a pipe pair for
   local exec'd workers, one TCP socket (same fd both ways) for remote
   dial-in workers.  This seam is also where network fault injection
   lives — every frame sent passes through [send], so drop / garbage /
   delay / half-close / short-write chaos applies identically to both
   transport kinds. *)
module Transport = struct
  type t = {
    tr_in : Unix.file_descr;
    tr_out : Unix.file_descr;
    tr_desc : string;
    tr_socket : bool; (* half-close via shutdown rather than close *)
    mutable tr_fault : Fault_inject.net_mode option;
    mutable tr_sent : int; (* frames sent, for nth-frame fault modes *)
    mutable tr_closed : bool;
  }

  let of_fds ?(desc = "pipe") ?fault ~input ~output () =
    {
      tr_in = input;
      tr_out = output;
      tr_desc = desc;
      tr_socket = input == output;
      tr_fault = fault;
      tr_sent = 0;
      tr_closed = false;
    }

  (* One-shot fault modes fire once per *process*, not per transport:
     a worker that reconnects after its own injected fault must serve
     cleanly (that clean second life is the re-dispatch path the chaos
     tests exercise). *)
  let fault_spent = ref false

  let shutdown_send t =
    if t.tr_socket then (
      try Unix.shutdown t.tr_out Unix.SHUTDOWN_SEND
      with Unix.Unix_error _ -> ())
    else (try Unix.close t.tr_out with Unix.Unix_error _ -> ())

  (* Raw bytes on the wire, bypassing the framing (garbage / partial
     frames only exist below the frame layer). *)
  let send_raw t bytes =
    let len = Bytes.length bytes in
    let off = ref 0 in
    while !off < len do
      off :=
        !off + retry_intr (fun () -> Unix.write t.tr_out bytes !off (len - !off))
    done

  let spend t =
    t.tr_fault <- None;
    fault_spent := true

  let send t frame =
    t.tr_sent <- t.tr_sent + 1;
    match t.tr_fault with
    | Some (Fault_inject.NF_delay s) ->
        Unix.sleepf s;
        write_frame t.tr_out frame
    | Some (Fault_inject.NF_drop n) when t.tr_sent = n -> spend t
    | Some (Fault_inject.NF_garbage n) when t.tr_sent = n ->
        spend t;
        (* An all-ones length prefix decodes far beyond any sane frame
           cap: the peer must fault structurally, not allocate. *)
        send_raw t (Bytes.make 64 '\xff')
    | Some (Fault_inject.NF_half_close n) when t.tr_sent >= n ->
        spend t;
        shutdown_send t
    | Some (Fault_inject.NF_short_write n) when t.tr_sent = n ->
        spend t;
        let b = encode_frame frame in
        send_raw t (Bytes.sub b 0 (min 3 (Bytes.length b)));
        shutdown_send t
    | _ -> write_frame t.tr_out frame

  let recv ?max_frame t = read_frame ?max_frame t.tr_in

  let close t =
    if not t.tr_closed then begin
      t.tr_closed <- true;
      (try Unix.close t.tr_in with Unix.Unix_error _ -> ());
      if not (t.tr_in == t.tr_out) then
        try Unix.close t.tr_out with Unix.Unix_error _ -> ()
    end
end

(* Network fault armed for this worker process via the environment
   (chaos harnesses set it on the worker they start, like
   [Fault_inject.worker_env] for process-level faults).  Honoured once
   per process — see [Transport.fault_spent]. *)
let armed_net_fault () =
  if !Transport.fault_spent then None
  else
    match Sys.getenv_opt Fault_inject.net_env with
    | None | Some "" -> None
    | Some s -> Some (Fault_inject.net_mode_of_string s)

(* ------------------------------------------------------------------ *)
(* TCP plumbing                                                        *)
(* ------------------------------------------------------------------ *)

(* "HOST:PORT" split and range-checked without resolving HOST: the
   shape a command line can check before anything runs. *)
let split_addr s =
  match String.rindex_opt s ':' with
  | None -> Error "expected HOST:PORT"
  | Some 0 -> Error "empty host"
  | Some i -> (
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 -> Ok (String.sub s 0 i, p)
      | _ -> Error ("bad port " ^ port))

(* "HOST:PORT" -> socket address.  Numeric hosts only resolve through
   [inet_addr_of_string]; names go through the resolver.  Raises
   [Invalid_argument] on a malformed address and [Failure] when HOST
   does not resolve. *)
let sockaddr_of_string s =
  match split_addr s with
  | Error e -> invalid_arg (Printf.sprintf "%s: %s" e s)
  | Ok (host, port) ->
      let unresolved () = failwith ("cannot resolve host " ^ host) in
      let addr =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } -> unresolved ()
            | h -> h.Unix.h_addr_list.(0)
            | exception Not_found -> unresolved ())
      in
      (addr, port)

(* Why an address could not be resolved, bound or dialed, for one log
   line. *)
let unix_reason err fn = Printf.sprintf "%s in %s" (Unix.error_message err) fn

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

(* Bound + listening TCP socket for a worker pool or /metrics endpoint,
   with the actual port (meaningful when the caller bound port 0); or
   why [addr] could not be resolved or bound. *)
let listen_socket ?(backlog = 16) addr =
  match sockaddr_of_string addr with
  | exception Failure reason -> Error reason
  | ip, port -> (
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (ip, port));
        Unix.listen sock backlog;
        Unix.getsockname sock
      with
      | Unix.ADDR_INET (_, p) -> Ok (sock, p)
      | _ -> Ok (sock, port)
      | exception Unix.Unix_error (err, fn, _) ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Error (unix_reason err fn))

let dial addr =
  let ip, port = sockaddr_of_string addr in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_INET (ip, port))
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  sock

(* ------------------------------------------------------------------ *)
(* Worker loop                                                         *)
(* ------------------------------------------------------------------ *)

(* An escape-hatch environment variable is set unless it is absent,
   empty or "0" — the one reading every hatch and its build-info label
   share. *)
let env_flag v =
  match Sys.getenv_opt v with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* Can this platform run exec'd shard workers at all?  [Sys.win32] lacks
   the POSIX process control the supervisor needs; PROTEAN_NO_SPAWN=1
   forces the in-process fallback (used to test graceful degradation),
   which supervised runs degrade to when spawning is unavailable. *)
let can_spawn () = (not Sys.win32) && not (env_flag "PROTEAN_NO_SPAWN")

let armed_fault () =
  match Sys.getenv_opt Fault_inject.worker_env with
  | None | Some "" -> None
  | Some s -> Some (Fault_inject.worker_mode_of_string s)

(* Abort the current process the way a real crash would: no OCaml
   cleanup, no flush — the supervisor must cope with the raw pipe
   state. *)
let crash_self signal = Unix.kill (Unix.getpid ()) signal

let inject_before_cell fault out (cell : cell) =
  match fault with
  | Some (Fault_inject.WF_poison n) when n = cell.c_id ->
      (* Leave a half-written frame behind, like a segfault mid-cell. *)
      ignore (Unix.write out (Bytes.of_string "\x00\x00\x01") 0 3);
      crash_self Sys.sigabrt
  | Some Fault_inject.WF_stall ->
      (* Hold the pipe open but go silent; the heartbeat deadline must
         convert this into a kill. *)
      while true do
        Unix.sleepf 3600.0
      done
  | _ -> ()

let inject_after_first_result fault out ~results_sent =
  if results_sent = 1 then
    match fault with
    | Some Fault_inject.WF_kill -> crash_self Sys.sigkill
    | Some Fault_inject.WF_truncate ->
        (* A length prefix promising 256 bytes, then silence. *)
        ignore (Unix.write out (Bytes.of_string "\x00\x00\x01\x00junk") 0 8);
        exit 2
    | _ -> ()

(* Serve work batches on a transport (stdin/stdout of an exec'd worker,
   a pipe pair in tests, or a TCP socket for dial-in workers).
   [compute] resolves a cell key to a result payload; exceptions it
   raises become structured cellfault frames, not worker deaths.
   [jobs] computes each chunk of the batch on that many domains
   ([--shards] composes with [-j]): results are still emitted in batch
   order, and the heartbeat granularity is the chunk.

   Returns [`Exit] when the supervisor sent [F_exit] (campaign over —
   a dial-in worker must not reconnect) and [`Eof] on connection loss
   (a dial-in worker should redial). *)
let serve_transport ?(jobs = 1) ~(compute : string -> Json.t)
    (tr : Transport.t) =
  let fault = armed_fault () in
  let output = tr.Transport.tr_out in
  let results_sent = ref 0 in
  let send frame =
    Transport.send tr frame;
    match frame with
    | F_result _ | F_cellfault _ ->
        incr results_sent;
        inject_after_first_result fault output ~results_sent:!results_sent
    | _ -> ()
  in
  let compute_cell (cell : cell) =
    match compute cell.c_key with
    | r -> F_result (cell.c_id, r)
    | exception e ->
        F_cellfault { fc_id = cell.c_id; fc_reason = Printexc.to_string e }
  in
  let run_batch cells =
    let rec chunks = function
      | [] -> ()
      | cells ->
          let chunk, rest =
            let rec take k = function
              | x :: xs when k > 0 ->
                  let a, b = take (k - 1) xs in
                  (x :: a, b)
              | xs -> ([], xs)
            in
            take (max 1 jobs) cells
          in
          List.iter (fun c -> inject_before_cell fault output c) chunk;
          (match chunk with
          | c :: _ -> send (F_hb c.c_id)
          | [] -> ());
          let frames =
            if jobs <= 1 then List.map compute_cell chunk
            else
              Array.to_list
                (Parallel.map ~jobs
                   (Array.of_list (List.map (fun c () -> compute_cell c) chunk)))
          in
          List.iter send frames;
          chunks rest
    in
    chunks cells;
    send F_done
  in
  let rec loop () =
    match Transport.recv tr with
    | None -> `Eof
    | Some F_exit -> `Exit
    | Some (F_work cells) ->
        run_batch cells;
        loop ()
    | Some _ -> loop () (* supervisor-bound frames are ignored here *)
  in
  loop ()

let serve ?jobs ~compute input output =
  ignore
    (serve_transport ?jobs ~compute (Transport.of_fds ~input ~output ()))

(* Entry point for a CLI's [--worker] mode: speak the protocol on
   stdin/stdout and route every diagnostic line through log frames. *)
let worker_main ?jobs ~compute () =
  ignore_sigpipe ();
  let stdout_fd = Unix.stdout in
  Experiment.set_line_sink (fun line -> write_frame stdout_fd (F_log line));
  serve ?jobs ~compute Unix.stdin stdout_fd

(* ------------------------------------------------------------------ *)
(* Dial-in worker (TCP pool member)                                    *)
(* ------------------------------------------------------------------ *)

(* Entry point for a CLI's [--connect HOST:PORT] mode: dial a
   [--listen]ing supervisor, authenticate with the campaign token,
   serve batches, and redial (up to [reconnect] extra attempts) if the
   connection drops before the supervisor says [F_exit].  The reconnect
   path is what turns a network blip — or an injected transport fault
   on our own side — into a re-dispatched lease instead of a lost
   campaign.

   Redials pace themselves with exponential backoff and decorrelated
   jitter: each sleep is drawn uniformly from [backoff, 3 * previous],
   capped at [backoff_cap].  A fleet of workers redialing a restarted
   supervisor therefore spreads out instead of thundering in lockstep
   at fixed multiples of [backoff] — and no worker ever waits more than
   the cap, however many attempts it has made.

   An address that does not resolve counts as one nobody listens on:
   the worker redials.  Returns [Error] when the redials run out without
   reaching the supervisor, or when it rejects the handshake (wrong
   token, campaign or protocol version: redialing would be rejected
   again). *)
let connect_worker ?jobs ?(reconnect = 5) ?(backoff = 0.2)
    ?(backoff_cap = 5.0) ?campaign:(h_campaign = "") ~addr ~token ~compute () =
  ignore_sigpipe ();
  let serve_link sock =
    let tr =
      Transport.of_fds ~desc:addr ?fault:(armed_net_fault ()) ~input:sock
        ~output:sock ()
    in
    let finish r = Transport.close tr; r in
    (* The handshake bypasses fault injection ([write_frame], not
       [Transport.send]): chaos targets the campaign stream, and an
       unauthenticated connection holds no lease to re-dispatch. *)
    match
      write_frame sock
        (F_hello { h_version = protocol_version; h_token = token; h_campaign });
      read_frame sock
    with
    | Some (F_welcome _) ->
        (* Diagnostics from [compute] flow to the supervisor's run log;
           once the link is gone they are dropped, not fatal. *)
        Experiment.set_line_sink (fun line ->
            try Transport.send tr (F_log line) with _ -> ());
        let r = (try serve_transport ?jobs ~compute tr with
                 | Unix.Unix_error _ | Protocol _ | Json.Parse _ -> `Eof)
        in
        finish r
    | Some (F_reject reason) -> finish (`Rejected reason)
    | Some _ | None -> finish `Eof
    | exception (Unix.Unix_error _ | Protocol _ | Json.Parse _) ->
        finish `Eof
  in
  let session () =
    match dial addr with
    | sock -> serve_link sock
    | exception Unix.Unix_error (err, fn, _) ->
        `Unreachable (unix_reason err fn)
    | exception Failure reason -> `Unreachable reason
  in
  (* Jitter only perturbs wall-clock pacing, never campaign output, so
     the state seeds itself (pid + clock) rather than touching the
     global [Random] sequence deterministic runs rely on. *)
  let rng =
    Random.State.make
      [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |]
  in
  let pause prev =
    let hi = Float.min backoff_cap (prev *. 3.) in
    let s =
      if hi <= backoff then backoff
      else backoff +. Random.State.float rng (hi -. backoff)
    in
    Unix.sleepf s;
    s
  in
  let rec attempt n prev =
    match session () with
    | `Exit -> Ok ()
    | `Rejected reason -> Error ("supervisor rejected worker: " ^ reason)
    | (`Eof | `Unreachable _) when n < reconnect ->
        (* The supervisor may not be listening yet, or lost the link. *)
        attempt (n + 1) (pause prev)
    | `Eof -> Ok ()
    | `Unreachable reason ->
        Error
          (Printf.sprintf "no supervisor reached in %d attempts: %s" (n + 1)
             reason)
  in
  attempt 0 backoff
