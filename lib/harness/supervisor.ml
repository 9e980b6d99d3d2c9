(* Crash-isolated multi-process shard supervisor.

   [run] hands the caller's leases (work batches: cell lists) to a pool
   of worker processes speaking {!Shard}'s length-prefixed JSON frame
   protocol.  Each lease goes to whichever member is idle, and every
   member takes lease after lease.  Members join the pool from one of
   two sources:

   - spawned: exec'd copies of the current CLI in [--worker] mode, on
     stdin/stdout pipes.  A spawn joins pre-authenticated in one of
     [shards] slots when a lease finds no idle member, and is told to
     exit once the work is done;
   - dial-in ([pool]): remote [--connect] workers accepted on a TCP
     listener.  They authenticate with a [hello] handshake.

   One loop owns robustness end-to-end, whichever the source:

   - liveness: per-lease heartbeat deadlines (no frame for [heartbeat]
     seconds) and a wall-clock budget per lease; an expired worker is
     SIGKILLed (spawn) or dropped (dial-in) and its *uncompleted* cells
     requeued — results streamed before the failure are kept;
   - retry: a failed lease (crash, kill, disconnect, protocol
     corruption) is requeued with exponential backoff;
   - bisection: a lease that keeps failing is split in half until the
     failure is isolated to a single cell, which is reported as a
     structured fault — in the style of [Pipeline.Sim_fault] — instead
     of crashing the run, while every other cell completes;
   - results: each cell a worker completes is handed to the caller
     ([on_result]) as it arrives — {!Campaign.run} appends it to the
     campaign's checkpoint — and the merge is by cell id, so it is
     byte-identical to a serial run whichever worker computed what;
   - degradation: when processes cannot be spawned (Windows,
     PROTEAN_NO_SPAWN=1, exec failure) or no dial-in worker turns up,
     the remaining cells fall back to the in-process [fallback].

   Worker lifecycle (spawn / connect / lease / heartbeat / retry /
   bisect / kill / poison) is surfaced through the same observer
   pattern as the pipeline's hook bus ([Protean_ooo.Hooks]): typed
   events, subscribers in registration order, so run-log tooling needs
   no supervisor-code changes. *)

module Fault_inject = Protean_defense.Fault_inject
module Json = Shard.Json
module Http_listener = Protean_telemetry.Http_listener

(* ------------------------------------------------------------------ *)
(* Lifecycle event bus                                                 *)
(* ------------------------------------------------------------------ *)

type event =
  | Spawn of { shard : int; attempt : int; pid : int option; cells : int }
  | Heartbeat of { shard : int; cell : int }
  | Cell_done of { shard : int; cell : int }
  | Cell_fault of { shard : int; cell : int; reason : string }
  | Worker_log of { shard : int; line : string }
  | Worker_stderr of { shard : int; line : string }
  | Kill of { shard : int; reason : string }
  | Worker_exit of { shard : int; status : string; ok : bool }
  | Retry of { shard : int; attempt : int; delay : float }
  | Bisect of { shard : int; left : int; right : int }
  | Poisoned of { cell : int; key : string; attempts : int; reason : string }
  | Fallback of { reason : string }
  | Merged of { cells : int; faults : int }
  (* Dial-in ([--listen]) members: *)
  | Listening of { addr : string; port : int }
  | Worker_connected of { worker : int; peer : string }
  | Worker_rejected of { peer : string; reason : string }
  | Lease_granted of { shard : int; worker : int; cells : int; attempt : int }
  | Worker_disconnected of { worker : int; reason : string }

type subscriber = { s_name : string; s_handler : event -> unit }
type bus = { mutable subs : subscriber array }

let create_bus () = { subs = [||] }

let subscribe bus ~name handler =
  bus.subs <- Array.append bus.subs [| { s_name = name; s_handler = handler } |]

let unsubscribe bus name =
  bus.subs <-
    Array.of_list
      (List.filter (fun s -> s.s_name <> name) (Array.to_list bus.subs))

let emit bus ev = Array.iter (fun s -> s.s_handler ev) bus.subs

let event_to_string = function
  | Spawn { shard; attempt; pid; cells } ->
      Printf.sprintf "shard %d: spawn attempt %d (%s) for %d cells" shard
        attempt
        (match pid with Some p -> "pid " ^ string_of_int p | None -> "in-proc")
        cells
  | Heartbeat { shard; cell } ->
      Printf.sprintf "shard %d: heartbeat at cell %d" shard cell
  | Cell_done { shard; cell } -> Printf.sprintf "shard %d: cell %d done" shard cell
  | Cell_fault { shard; cell; reason } ->
      Printf.sprintf "shard %d: cell %d faulted in-process: %s" shard cell reason
  | Worker_log { shard; line } -> Printf.sprintf "shard %d: %s" shard line
  | Worker_stderr { shard; line } ->
      Printf.sprintf "shard %d (stderr): %s" shard line
  | Kill { shard; reason } -> Printf.sprintf "shard %d: killed (%s)" shard reason
  | Worker_exit { shard; status; ok } ->
      Printf.sprintf "shard %d: exited %s (%s)" shard status
        (if ok then "ok" else "failed")
  | Retry { shard; attempt; delay } ->
      Printf.sprintf "shard %d: retry attempt %d after %.2fs backoff" shard
        attempt delay
  | Bisect { shard; left; right } ->
      Printf.sprintf "shard %d: bisected into %d + %d cells" shard left right
  | Poisoned { cell; key; attempts; reason } ->
      Printf.sprintf "cell %d poisoned after %d attempts (%s): %s" cell attempts
        key reason
  | Fallback { reason } -> Printf.sprintf "in-process fallback: %s" reason
  | Merged { cells; faults } ->
      Printf.sprintf "merged %d cells (%d faulted)" cells faults
  | Listening { addr; port } ->
      Printf.sprintf "worker pool listening on %s (port %d)" addr port
  | Worker_connected { worker; peer } ->
      Printf.sprintf "worker %d connected from %s" worker peer
  | Worker_rejected { peer; reason } ->
      Printf.sprintf "connection from %s rejected: %s" peer reason
  | Lease_granted { shard; worker; cells; attempt } ->
      Printf.sprintf "lease %d (attempt %d, %d cells) granted to worker %d"
        shard attempt cells worker
  | Worker_disconnected { worker; reason } ->
      Printf.sprintf "worker %d disconnected: %s" worker reason

(* Run-log subscriber: serialized through the experiment-layer line sink
   so supervisor lines never interleave with in-process fill output. *)
let logger = function
  | Heartbeat _ | Cell_done _ -> ()
  | Worker_log { line; _ } -> Experiment.log_line "%s" line
  | Worker_stderr { shard; line } ->
      Experiment.log_line "[shard %d] %s" shard line
  | ev -> Experiment.log_line "[supervisor] %s" (event_to_string ev)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  shards : int; (* spawn slots, and the cap on leases in flight *)
  heartbeat : float; (* s without any frame before a worker is killed *)
  wall : float; (* s per lease before its worker is killed *)
  max_attempts : int; (* failures of one lease before bisect/poison *)
  backoff : float; (* base retry delay, doubled per attempt *)
  inject : Fault_inject.worker_mode option;
}

let default_config =
  {
    shards = 2;
    heartbeat = 120.0;
    wall = 3600.0;
    max_attempts = 2;
    backoff = 0.25;
    inject = None;
  }

(* Dial-in source ([--listen]): instead of exec'ing local workers the
   supervisor listens on TCP and remote workers dial in, so a campaign
   spans machines.  Dial-in connections must present the campaign
   [token], a matching protocol version and the supervisor's own
   campaign identity before they are leased any work. *)
type pool_config = {
  pl_listen : string; (* HOST:PORT to bind; port 0 picks one *)
  pl_token : string; (* shared campaign secret for the handshake *)
  pl_campaign : string; (* [Campaign.identity] every worker must match *)
  pl_accept_wall : float;
      (* s with work pending but no worker holding a lease before the
         campaign degrades to the in-process fallback *)
}

let default_pool_config =
  {
    pl_listen = "127.0.0.1:0";
    pl_token = "protean";
    pl_campaign = "";
    pl_accept_wall = 60.0;
  }

(* The pool's [pl_listen] address could not be resolved or bound (the
   address and the reason); raised by {!run} before any work is
   leased. *)
exception Listen_failed of string

type outcome =
  | O_ok of Json.t
  | O_fault of { f_key : string; f_attempts : int; f_reason : string }
      (* the structured record a poisoned cell resolves to *)

(* ------------------------------------------------------------------ *)
(* Worker transports                                                   *)
(* ------------------------------------------------------------------ *)

(* The process-management half of a spawned worker is abstracted so
   tests can drive the supervisor with in-process (domain-backed)
   workers while production uses fork/exec. *)
type transport = {
  t_pid : int option;
  t_read : Unix.file_descr; (* frames from the worker *)
  t_write : Unix.file_descr; (* frames to the worker *)
  t_err : Unix.file_descr option; (* the worker's raw stderr *)
  t_kill : unit -> unit;
  t_wait : unit -> string * bool; (* reap; (status text, clean exit) *)
}

(* OCaml's [Sys] signal numbers are its own encoding (negative for the
   portable set); name the ones workers actually die of. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else string_of_int s

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %s" (signal_name s)

(* Spawn [argv] (normally this executable with [--worker]) with frame
   pipes on its stdin/stdout and a captured stderr. *)
let spawn_exec ~argv ~env_fault : transport =
  let to_worker_r, to_worker_w = Unix.pipe ~cloexec:false () in
  let from_worker_r, from_worker_w = Unix.pipe ~cloexec:false () in
  let err_r, err_w = Unix.pipe ~cloexec:false () in
  let env =
    let base =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not
               (String.length kv > String.length Fault_inject.worker_env
               && String.sub kv 0 (String.length Fault_inject.worker_env + 1)
                  = Fault_inject.worker_env ^ "="))
    in
    match env_fault with
    | None -> Array.of_list base
    | Some m ->
        Array.of_list ((Fault_inject.worker_env ^ "=" ^ m) :: base)
  in
  let pid =
    Unix.create_process_env argv.(0) argv env to_worker_r from_worker_w err_w
  in
  Unix.close to_worker_r;
  Unix.close from_worker_w;
  Unix.close err_w;
  {
    t_pid = Some pid;
    t_read = from_worker_r;
    t_write = to_worker_w;
    t_err = Some err_r;
    t_kill =
      (fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    t_wait =
      (fun () ->
        let _, status = Unix.waitpid [] pid in
        (status_to_string status, status = Unix.WEXITED 0));
  }

(* An accepted dial-in connection: one socket both ways, nothing to
   kill or reap. *)
let socket_transport fd =
  {
    t_pid = None;
    t_read = fd;
    t_write = fd;
    t_err = None;
    t_kill = ignore;
    t_wait = (fun () -> ("closed", true));
  }

(* Build the argv for re-exec'ing the current CLI as a shard worker:
   the original command line minus supervisor-only flags (so the
   worker's discovery pass enumerates exactly the same cells), plus
   [--worker].  Flags in [drop] are removed together with their
   separate-token value; [--flag=value] spellings too.  [argv] (default
   [Sys.argv]) is the command line to start from. *)
let self_worker_argv ?(argv = Sys.argv) ~drop () =
  let rec filter = function
    | [] -> []
    | tok :: rest when List.mem tok drop -> (
        match rest with _ :: rest' -> filter rest' | [] -> [])
    | tok :: rest
      when List.exists
             (fun d ->
               let dl = String.length d in
               String.length tok > dl + 1 && String.sub tok 0 (dl + 1) = d ^ "=")
             drop ->
        filter rest
    | tok :: rest -> tok :: filter rest
  in
  let args =
    match Array.to_list argv with
    | _ :: rest -> filter rest
    | [] -> []
  in
  Array.of_list ((Sys.executable_name :: args) @ [ "--worker" ])

(* ------------------------------------------------------------------ *)
(* The supervision loop                                                *)
(* ------------------------------------------------------------------ *)

(* A lease: one batch of cells, waiting in the queue or held by a
   member. *)
type pending = {
  p_shard : int; (* display id *)
  p_cells : Shard.cell list;
  p_attempt : int;
  p_not_before : float;
}

(* A pool member: one worker of either source.  It holds at most one
   lease at a time, so a dead member forfeits exactly one batch.
   [m_id] is the display id: a spawn's slot (0..shards-1, which its
   replacement reuses), an accept counter for a dial-in. *)
type member = {
  m_id : int;
  m_spawned : bool; (* exec'd on a pipe: SIGKILLed and reaped *)
  m_peer : string;
  m_tr : transport;
  m_dec : Shard.Decoder.t;
  mutable m_authed : bool; (* spawns join pre-authenticated *)
  mutable m_errbuf : string;
  mutable m_last : float; (* last bytes received (liveness) *)
  mutable m_lease : pending option;
  mutable m_leased_at : float;
}

(* Result ledger: which cells are resolved, and the final
   deterministic merge.
   Commutative bookkeeping — results can arrive from any worker in any
   order and the merge is still byte-identical to a serial run. *)
module Ledger = struct
  type t = {
    g_bus : bus;
    g_cells : Shard.cell list;
    g_n : int;
    g_key_of_id : (int, string) Hashtbl.t;
    g_results : (int, outcome) Hashtbl.t;
    mutable g_faults : int;
  }

  let create ~bus cells =
    let key_of_id = Hashtbl.create 64 in
    List.iter
      (fun c -> Hashtbl.replace key_of_id c.Shard.c_id c.Shard.c_key)
      cells;
    {
      g_bus = bus;
      g_cells = cells;
      g_n = List.length cells;
      g_key_of_id = key_of_id;
      g_results = Hashtbl.create 64;
      g_faults = 0;
    }

  let have t id = Hashtbl.mem t.g_results id
  let key_of t id = try Hashtbl.find t.g_key_of_id id with Not_found -> ""

  (* [true] when [id] was not resolved before. *)
  let record_ok t id r =
    (not (have t id))
    && begin
         Hashtbl.replace t.g_results id (O_ok r);
         true
       end

  (* A structured fault is final: no retry or bisection rescues it. *)
  let poison t ~attempts id reason =
    if not (have t id) then begin
      t.g_faults <- t.g_faults + 1;
      let key = key_of t id in
      Hashtbl.replace t.g_results id
        (O_fault { f_key = key; f_attempts = attempts; f_reason = reason });
      emit t.g_bus (Poisoned { cell = id; key; attempts; reason })
    end

  let remaining t =
    List.filter (fun c -> not (have t c.Shard.c_id)) t.g_cells

  let finish t =
    emit t.g_bus (Merged { cells = t.g_n; faults = t.g_faults });
    List.map
      (fun c ->
        match Hashtbl.find_opt t.g_results c.Shard.c_id with
        | Some o -> (c.Shard.c_id, o)
        | None ->
            (* Unreachable by construction — every cell is either
               resulted, poisoned, or recomputed by the fallback. *)
            ( c.Shard.c_id,
              O_fault
                {
                  f_key = c.Shard.c_key;
                  f_attempts = 0;
                  f_reason = "supervisor lost track of cell";
                } ))
      t.g_cells
end

(* Grant [leases], in order, to idle pool members until every cell is
   resolved.  Returns [Some reason] when the pool gave up (exec failure,
   no dial-in worker within the accept budget) with cells still
   unresolved. *)
let supervise ~bus ?spawn ?pool ?http ~on_result ~worker_argv cfg
    (ledger : Ledger.t) leases =
  let now () = Unix.gettimeofday () in
  let next_shard = ref 0 in
  let fresh_shard () =
    let s = !next_shard in
    incr next_shard;
    s
  in
  let fresh_lease ~not_before cells =
    {
      p_shard = fresh_shard ();
      p_cells = cells;
      p_attempt = 1;
      p_not_before = not_before;
    }
  in
  let pending = ref (List.map (fresh_lease ~not_before:0.0) leases) in
  let members : member list ref = ref [] in
  let aborted = ref None in
  (* Spawns per slot so far: a replacement's attempt number. *)
  let spawns = Array.make cfg.shards 0 in
  (* When the work was done and every spawn told to exit. *)
  let exit_sent = ref None in
  (* Last time the campaign moved (connect, lease, result): the
     no-worker give-up clock measures from here. *)
  let progress = ref (now ()) in
  let hb_expired =
    Printf.sprintf "heartbeat deadline (%.0fs) expired" cfg.heartbeat
  in
  let wall_expired =
    Printf.sprintf "wall-clock budget (%.0fs) expired" cfg.wall
  in
  let lsock =
    Option.map
      (fun p ->
        match Shard.listen_socket p.pl_listen with
        | Error reason ->
            raise (Listen_failed (Printf.sprintf "%s: %s" p.pl_listen reason))
        | Ok (sock, port) ->
            (* Subscribers (tests, log tooling) learn the real port when
               [pl_listen] ends in ":0". *)
            emit bus (Listening { addr = p.pl_listen; port });
            sock)
      pool
  in
  let next_worker = ref 0 in
  let join ~id ~spawned ~peer tr =
    let m =
      {
        m_id = id;
        m_spawned = spawned;
        m_peer = peer;
        m_tr = tr;
        m_dec = Shard.Decoder.create ();
        m_authed = spawned;
        m_errbuf = "";
        m_last = now ();
        m_lease = None;
        m_leased_at = 0.0;
      }
    in
    members := m :: !members;
    m
  in
  let shard_of m = match m.m_lease with Some p -> p.p_shard | None -> m.m_id in
  (* Failure disposition: retry with exponential backoff while the
     attempt budget lasts, then bisect a multi-cell lease towards the
     failing cell, and poison a single cell that keeps failing. *)
  let requeue p reason =
    let rest =
      List.filter (fun c -> not (Ledger.have ledger c.Shard.c_id)) p.p_cells
    in
    if rest = [] then ()
    else if p.p_attempt < cfg.max_attempts then begin
      let delay = cfg.backoff *. (2.0 ** float_of_int (p.p_attempt - 1)) in
      emit bus (Retry { shard = p.p_shard; attempt = p.p_attempt + 1; delay });
      pending :=
        !pending
        @ [
            {
              p with
              p_cells = rest;
              p_attempt = p.p_attempt + 1;
              p_not_before = now () +. delay;
            };
          ]
    end
    else
      match rest with
      | [ c ] -> Ledger.poison ledger ~attempts:p.p_attempt c.Shard.c_id reason
      | _ ->
          (* Bisect: narrow the crashing lease towards the poisoned
             cell; each half restarts its attempt budget. *)
          let mid = List.length rest / 2 in
          let left = List.filteri (fun i _ -> i < mid) rest in
          let right = List.filteri (fun i _ -> i >= mid) rest in
          emit bus
            (Bisect
               {
                 shard = p.p_shard;
                 left = List.length left;
                 right = List.length right;
               });
          let half = fresh_lease ~not_before:(now () +. cfg.backoff) in
          pending := !pending @ [ half left; half right ]
  in
  (* Close [m]'s transport; a spawn is reaped, giving its exit status. *)
  let hang_up m =
    let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
    close m.m_tr.t_write;
    let status = if m.m_spawned then Some (m.m_tr.t_wait ()) else None in
    if m.m_tr.t_read <> m.m_tr.t_write then close m.m_tr.t_read;
    Option.iter close m.m_tr.t_err;
    status
  in
  (* Take [m] out of the pool and requeue a lease it still holds — for
     [failure] when the loop ended the member, else for whatever its EOF
     means. *)
  let retire ?failure m =
    members := List.filter (fun x -> x != m) !members;
    let reason =
      match hang_up m with
      | None ->
          let reason = Option.value failure ~default:"connection closed" in
          if m.m_authed then
            emit bus (Worker_disconnected { worker = m.m_id; reason });
          reason
      | Some (status, clean) -> (
          let truncated = Shard.Decoder.pending_bytes m.m_dec > 0 in
          emit bus
            (Worker_exit
               {
                 shard = m.m_id;
                 status;
                 ok =
                   failure = None && clean && (not truncated)
                   && m.m_lease = None;
               });
          match failure with
          | Some r -> r
          | None when truncated ->
              Printf.sprintf "worker died mid-frame (%s)" status
          | None -> Printf.sprintf "worker crashed (%s)" status)
    in
    match m.m_lease with
    | Some p ->
        m.m_lease <- None;
        requeue p reason
    | None -> ()
  in
  let kill m reason =
    if m.m_spawned then begin
      emit bus (Kill { shard = m.m_id; reason });
      m.m_tr.t_kill ()
    end;
    retire ~failure:reason m
  in
  (* Spawn a worker into [slot] for lease [p].  A one-shot worker fault
     arms only the first spawn, slot 0's; a persistent one arms every
     spawn. *)
  let spawn_member slot p =
    spawns.(slot) <- spawns.(slot) + 1;
    let attempt = spawns.(slot) in
    let env_fault =
      match cfg.inject with
      | Some mode
        when Fault_inject.worker_mode_persistent mode
             || (slot = 0 && attempt = 1) ->
          Some (Fault_inject.worker_mode_name mode)
      | _ -> None
    in
    let tr =
      match spawn with
      | Some f -> f ~shard:slot ~attempt ~env_fault
      | None -> spawn_exec ~argv:worker_argv ~env_fault
    in
    emit bus
      (Spawn
         {
           shard = slot;
           attempt;
           pid = tr.t_pid;
           cells = List.length p.p_cells;
         });
    join ~id:slot ~spawned:true ~peer:"pipe" tr
  in
  (* A slot no spawn occupies, when workers are spawned at all. *)
  let free_slot () =
    if pool <> None then None
    else
      List.find_opt
        (fun s -> not (List.exists (fun m -> m.m_id = s) !members))
        (List.init cfg.shards Fun.id)
  in
  let lease m p =
    Shard.write_frame m.m_tr.t_write (Shard.F_work p.p_cells);
    let t = now () in
    m.m_lease <- Some p;
    m.m_leased_at <- t;
    m.m_last <- t;
    progress := t;
    emit bus
      (Lease_granted
         {
           shard = p.p_shard;
           worker = m.m_id;
           cells = List.length p.p_cells;
           attempt = p.p_attempt;
         })
  in
  (* The lease dispatcher, while fewer than [cfg.shards] leases are out:
     grant [p] to an idle member, else to a new spawn in a free slot. *)
  let grant p =
    !aborted = None
    && List.length (List.filter (fun m -> m.m_lease <> None) !members)
       < cfg.shards
    &&
    match List.find_opt (fun m -> m.m_authed && m.m_lease = None) !members with
    | Some m -> (
        match lease m p with
        | () -> true
        | exception Unix.Unix_error _ ->
            (* Found dead at grant time: the lease never left, so it
               stays pending rather than burning an attempt. *)
            retire ~failure:"write failed at lease grant" m;
            false)
    | None -> (
        match free_slot () with
        | None -> false
        | Some slot -> (
            match lease (spawn_member slot p) p with
            | () -> true
            | exception e ->
                (* exec failed: degrade to in-process execution for
                   everything not yet computed. *)
                aborted := Some ("spawn failed: " ^ Printexc.to_string e);
                false))
  in
  let dispatch () =
    let t = now () in
    let due, later = List.partition (fun p -> p.p_not_before <= t) !pending in
    pending := later;
    let waiting = List.filter (fun p -> not (grant p)) due in
    pending := waiting @ !pending
  in
  (* A lease's [F_done]: the results are all in — or the missing ones
     (a dropped frame) are requeued, never invented.  The member stays
     for the next lease. *)
  let lease_done m =
    match m.m_lease with
    | None -> ()
    | Some p ->
        m.m_lease <- None;
        requeue p "lease completed with missing results"
  in
  let reject m reason =
    emit bus (Worker_rejected { peer = m.m_peer; reason });
    (try Shard.write_frame m.m_tr.t_write (Shard.F_reject reason)
     with Unix.Unix_error _ -> ());
    retire m
  in
  let token = match pool with Some p -> p.pl_token | None -> "" in
  let campaign = match pool with Some p -> p.pl_campaign | None -> "" in
  let handshake m = function
    | Shard.F_hello { h_version; _ } when h_version <> Shard.protocol_version ->
        reject m
          (Printf.sprintf "protocol version %d (supervisor speaks %d)" h_version
             Shard.protocol_version)
    | Shard.F_hello { h_token; _ } when h_token <> token ->
        reject m "bad campaign token"
    | Shard.F_hello { h_campaign; _ } when h_campaign <> campaign ->
        reject m
          (Printf.sprintf "campaign %S (supervisor runs %S)" h_campaign campaign)
    | Shard.F_hello _ -> (
        match
          Shard.write_frame m.m_tr.t_write
            (Shard.F_welcome Shard.protocol_version)
        with
        | () ->
            m.m_authed <- true;
            progress := now ();
            emit bus (Worker_connected { worker = m.m_id; peer = m.m_peer })
        | exception Unix.Unix_error _ -> retire m)
    | _ -> reject m "frame before handshake"
  in
  let holds m id =
    match m.m_lease with
    | Some p -> List.exists (fun c -> c.Shard.c_id = id) p.p_cells
    | None -> false
  in
  let handle_frame m frame =
    if not m.m_authed then handshake m frame
    else
      match frame with
      | Shard.F_result (id, _) | Shard.F_cellfault { fc_id = id; _ }
        when not (holds m id) ->
          (* An outcome counts only from the member leasing its cell. *)
          raise
            (Shard.Protocol
               (Printf.sprintf "cell %d is not in the worker's lease" id))
      | Shard.F_hb cell -> emit bus (Heartbeat { shard = shard_of m; cell })
      | Shard.F_result (id, r) ->
          if Ledger.record_ok ledger id r then on_result id r;
          progress := now ();
          emit bus (Cell_done { shard = shard_of m; cell = id })
      | Shard.F_cellfault { fc_id; fc_reason } ->
          (* The worker caught the failure itself: a structured fault,
             final immediately — no retry or bisection needed. *)
          let attempts =
            match m.m_lease with Some p -> p.p_attempt | None -> 1
          in
          Ledger.poison ledger ~attempts fc_id fc_reason;
          progress := now ();
          emit bus
            (Cell_fault { shard = shard_of m; cell = fc_id; reason = fc_reason })
      | Shard.F_log line -> emit bus (Worker_log { shard = shard_of m; line })
      | Shard.F_done -> lease_done m
      | Shard.F_hello _ | Shard.F_work _ | Shard.F_exit | Shard.F_welcome _
      | Shard.F_reject _ ->
          ()
  in
  let buf = Bytes.create 65536 in
  let drain_err m fd =
    match Shard.retry_intr (fun () -> Unix.read fd buf 0 (Bytes.length buf)) with
    | 0 -> ()
    | k ->
        m.m_errbuf <- m.m_errbuf ^ Bytes.sub_string buf 0 k;
        let rec lines () =
          match String.index_opt m.m_errbuf '\n' with
          | Some i ->
              let line = String.sub m.m_errbuf 0 i in
              m.m_errbuf <-
                String.sub m.m_errbuf (i + 1) (String.length m.m_errbuf - i - 1);
              if line <> "" then
                emit bus (Worker_stderr { shard = shard_of m; line });
              lines ()
          | None -> ()
        in
        lines ()
    | exception Unix.Unix_error _ -> ()
  in
  let read m =
    match
      Shard.retry_intr (fun () ->
          Unix.read m.m_tr.t_read buf 0 (Bytes.length buf))
    with
    | 0 -> retire m (* EOF *)
    | k -> (
        m.m_last <- now ();
        Shard.Decoder.feed m.m_dec buf 0 k;
        let rec pop () =
          if List.memq m !members then
            match Shard.Decoder.next m.m_dec with
            | Some f ->
                handle_frame m f;
                pop ()
            | None -> ()
        in
        try pop ()
        with Json.Parse msg | Shard.Protocol msg ->
          kill m ("protocol corruption: " ^ msg))
    | exception Unix.Unix_error _ -> kill m "read error"
  in
  let accept sock =
    match Shard.retry_intr (fun () -> Unix.accept sock) with
    | fd, peer ->
        let id = !next_worker in
        incr next_worker;
        ignore
          (join ~id ~spawned:false ~peer:(Shard.string_of_sockaddr peer)
             (socket_transport fd))
    | exception Unix.Unix_error _ -> ()
  in
  (* When [m] must next show signs of life, and why it is ended if it
     does not: an unauthenticated dial-in gets a short handshake
     budget; a member holding a lease the heartbeat and per-lease
     wall-clock budgets.  An idle member has none, until it is told to
     exit: then it has the heartbeat budget to be reaped. *)
  let deadline m =
    if not m.m_authed then
      Some
        (m.m_last +. Float.min cfg.heartbeat 10.0, "handshake deadline expired")
    else
      match m.m_lease with
      | Some _ when m.m_leased_at +. cfg.wall < m.m_last +. cfg.heartbeat ->
          Some (m.m_leased_at +. cfg.wall, wall_expired)
      | Some _ -> Some (m.m_last +. cfg.heartbeat, hb_expired)
      | None ->
          Option.map (fun t -> (t +. cfg.heartbeat, hb_expired)) !exit_sent
  in
  let step () =
    dispatch ();
    let t = now () in
    List.iter
      (fun m ->
        match deadline m with
        | Some (d, reason) when t > d -> kill m reason
        | _ -> ())
      !members;
    (match pool with
    | Some p
      when !pending <> []
           && List.for_all (fun m -> m.m_lease = None) !members
           && t -. !progress > p.pl_accept_wall ->
        (* Work is pending, nobody is serving it, nothing has moved for
           the accept budget: degrade instead of hanging. *)
        aborted := Some "worker pool gave up: no connected workers"
    | _ -> ());
    if !aborted = None then begin
      let snapshot = !members in
      let fds =
        Option.to_list lsock
        @ List.concat_map
            (fun m -> m.m_tr.t_read :: Option.to_list m.m_tr.t_err)
            snapshot
        @ match http with Some h -> Http_listener.fds h | None -> []
      in
      (* Sleep until the next deadline or backoff expiry; a lease that
         is due but waits for a worker is woken by that worker's frames
         or connection instead. *)
      let timeout =
        let next =
          List.fold_left
            (fun acc m ->
              match deadline m with
              | Some (d, _) -> Float.min acc d
              | None -> acc)
            infinity snapshot
        in
        let next =
          List.fold_left
            (fun acc p ->
              if p.p_not_before > t then Float.min acc p.p_not_before else acc)
            next !pending
        in
        Float.max 0.01 (Float.min 0.5 (next -. now ()))
      in
      let readable =
        if fds = [] then begin
          Unix.sleepf timeout;
          []
        end
        else
          let r, _, _ =
            Shard.retry_intr (fun () -> Unix.select fds [] [] timeout)
          in
          r
      in
      Option.iter (fun h -> Http_listener.handle h readable) http;
      (match lsock with
      | Some s when List.memq s readable -> accept s
      | _ -> ());
      List.iter
        (fun m ->
          Option.iter
            (fun e -> if List.memq e readable then drain_err m e)
            m.m_tr.t_err;
          if List.memq m.m_tr.t_read readable && List.memq m !members then
            read m)
        snapshot
    end
  in
  let tell_exit m =
    try Shard.write_frame m.m_tr.t_write Shard.F_exit
    with Unix.Unix_error _ -> ()
  in
  (* However the loop ends: tell every member left to exit (a dial-in
     that merely lost its connection would redial; [F_exit] is what ends
     it) and never leak a spawned worker. *)
  let shutdown () =
    List.iter
      (fun m ->
        tell_exit m;
        m.m_tr.t_kill ();
        ignore (hang_up m))
      !members;
    members := [];
    Option.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) lsock
  in
  Fun.protect ~finally:shutdown (fun () ->
      while
        !aborted = None
        && (!pending <> [] || List.exists (fun m -> m.m_lease <> None) !members)
      do
        step ()
      done;
      (* The work is done: without a pool every member is a spawn, told
         to exit here and reaped by the loop when it does. *)
      if !aborted = None && pool = None then begin
        exit_sent := Some (now ());
        List.iter tell_exit !members;
        while !members <> [] do
          step ()
        done
      end);
  !aborted

(* Compute the cells of [leases] on pool members — spawned [--worker]
   processes ([worker_argv], or the [spawn] hook tests use), or, with
   [pool], dial-in workers on a TCP listener — and merge the outcomes in
   the leases' cell order.  Leases go out in order, each whole to one
   member.  The merge is byte-identical to a serial run no matter which
   worker computed what.  Each result a worker delivers is handed to
   [on_result] once, as it arrives.  [http] is a live /metrics listener
   polled on the same select.  As the last resort, [fallback] computes
   whatever the pool could not. *)
let run ?(bus = create_bus ()) ?spawn ?pool ?http ?(on_result = fun _ _ -> ())
    ?(worker_argv = [| Sys.executable_name; "--worker" |]) (cfg : config)
    ~(fallback : Shard.cell list -> (int * Json.t) list)
    (leases : Shard.cell list list) : (int * outcome) list =
  Shard.ignore_sigpipe ();
  let leases = List.filter (fun l -> l <> []) leases in
  let ledger = Ledger.create ~bus (List.concat leases) in
  let run_fallback reason =
    emit bus (Fallback { reason });
    List.iter
      (fun (id, r) -> ignore (Ledger.record_ok ledger id r))
      (fallback (Ledger.remaining ledger))
  in
  (match leases with
  | [] -> ()
  | _ when pool = None && not (Shard.can_spawn ()) ->
      run_fallback "process spawning unavailable"
  | _ ->
      Option.iter run_fallback
        (supervise ~bus ?spawn ?pool ?http ~on_result ~worker_argv cfg ledger
           leases));
  Ledger.finish ledger

(* ------------------------------------------------------------------ *)
(* Experiment-grid client                                              *)
(* ------------------------------------------------------------------ *)

(* The frame payload of an experiment-grid cell: an
   [Experiment.run_result], lossless across the pipe ({!Campaign.grid}
   drives the grid itself). *)
module Grid = struct
  module E = Experiment
  module Stats = Protean_ooo.Stats

  (* The per-port array rides as the list tail, after the fixed scalar
     counters — variable-length, so it must come last. *)
  let stats_to_json (s : Stats.t) =
    Json.List
      (List.map
         (fun i -> Json.Int i)
         ([
            s.Stats.cycles; s.Stats.marker_cycle; s.Stats.committed;
            s.Stats.fetched; s.Stats.squashes; s.Stats.squashed_insns;
            s.Stats.branch_mispredicts; s.Stats.machine_clears;
            s.Stats.mem_order_violations; s.Stats.l1d_accesses;
            s.Stats.l1d_misses; s.Stats.transmitter_stall_cycles;
            s.Stats.wakeup_delay_cycles; s.Stats.resolution_delay_cycles;
            s.Stats.access_pred_lookups; s.Stats.access_pred_mispredicts;
            s.Stats.access_pred_false_negatives; s.Stats.loads_executed;
            s.Stats.loads_protected_mem; s.Stats.port_structural_stall_cycles;
            s.Stats.wb_queue_stall_cycles; s.Stats.skipped_cycles;
          ]
         @ Array.to_list s.Stats.port_busy))

  let stats_of_json j =
    match List.map Json.to_int (Json.to_list j) with
    | cycles :: marker_cycle :: committed :: fetched :: squashes
      :: squashed_insns :: branch_mispredicts :: machine_clears
      :: mem_order_violations :: l1d_accesses :: l1d_misses
      :: transmitter_stall_cycles :: wakeup_delay_cycles
      :: resolution_delay_cycles :: access_pred_lookups
      :: access_pred_mispredicts :: access_pred_false_negatives
      :: loads_executed :: loads_protected_mem
      :: port_structural_stall_cycles :: wb_queue_stall_cycles
      :: skipped_cycles :: port_busy ->
        {
          Stats.cycles; marker_cycle; committed; fetched; squashes;
          squashed_insns; branch_mispredicts; machine_clears;
          mem_order_violations; l1d_accesses; l1d_misses;
          transmitter_stall_cycles; wakeup_delay_cycles;
          resolution_delay_cycles; access_pred_lookups;
          access_pred_mispredicts; access_pred_false_negatives;
          loads_executed; loads_protected_mem; port_structural_stall_cycles;
          wb_queue_stall_cycles; skipped_cycles;
          port_busy = Array.of_list port_busy;
        }
    | _ -> Json.parse_error "bad stats payload"

  (* Named-counter lists (policy metrics, folded flame stacks) ride the
     frame protocol as [[name, n], ...] pairs. *)
  let counters_to_json kvs =
    Json.List
      (List.map
         (fun (k, v) -> Json.List [ Json.Str k; Json.Int v ])
         kvs)

  let counters_of_json j =
    List.map
      (fun e ->
        match Json.to_list e with
        | [ k; v ] -> (Json.to_str k, Json.to_int v)
        | _ -> Json.parse_error "bad counter pair")
      (Json.to_list j)

  let result_to_json (r : E.run_result) =
    Json.Obj
      ([
         ("cycles", Json.Float r.E.cycles);
         ("stats", Json.List (List.map stats_to_json r.E.stats));
         ("code_size_ratio", Json.Float r.E.code_size_ratio);
         ("inserted_moves", Json.Int r.E.inserted_moves);
       ]
      (* Telemetry payloads (and the shared-frontend tag) are omitted
         when empty: keeps frames (and checkpoints written by
         telemetry-free or sharing-disabled runs) byte-compatible. *)
      @ (if r.E.policy_metrics = [] then []
         else [ ("pm", counters_to_json r.E.policy_metrics) ])
      @ (if r.E.flame = [] then [] else [ ("fl", counters_to_json r.E.flame) ])
      @ (if r.E.window = [] then []
         else [ ("wn", counters_to_json r.E.window) ])
      @ if r.E.frontend = "" then [] else [ ("fe", Json.Str r.E.frontend) ])

  let result_of_json j =
    {
      E.cycles = Json.(to_float (member "cycles" j));
      stats = List.map stats_of_json Json.(to_list (member "stats" j));
      code_size_ratio = Json.(to_float (member "code_size_ratio" j));
      inserted_moves = Json.(to_int (member "inserted_moves" j));
      policy_metrics =
        (match Json.member "pm" j with
        | Json.Null -> []
        | pm -> counters_of_json pm);
      flame =
        (match Json.member "fl" j with
        | Json.Null -> []
        | fl -> counters_of_json fl);
      frontend =
        (match Json.member "fe" j with
        | Json.Null -> ""
        | fe -> Json.to_str fe);
      window =
        (match Json.member "wn" j with
        | Json.Null -> []
        | wn -> counters_of_json wn);
    }
end
