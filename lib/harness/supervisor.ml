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

   {!Machine} makes every lease decision and does no I/O: stepped by
   inputs stamped with the time, it answers with actions, so tests drive
   it on a virtual clock.  It owns robustness whichever the source:
   heartbeat and per-lease wall-clock deadlines, requeue of a failed
   lease's uncompleted cells with exponential backoff, bisection of a
   lease that keeps failing down to one poisoned cell (a structured
   fault, not a crash), and a merge by cell id that is byte-identical
   to a serial run.  [run] is the thin Unix shell that performs the
   actions and feeds the inputs over one [select]; when processes
   cannot be spawned (Windows, PROTEAN_NO_SPAWN=1, exec failure) or no
   dial-in worker turns up, the remaining cells fall back to the
   in-process [fallback].  Worker lifecycle is reported as typed events
   to [on_event]. *)

module Fault_inject = Protean_defense.Fault_inject
module Json = Shard.Json
module Http_listener = Protean_telemetry.Http_listener

(* ------------------------------------------------------------------ *)
(* Lifecycle events                                                    *)
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

(* Run-log handler: serialized through the experiment-layer line sink
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
  inject : Fault_inject.worker_mode option;
}

let default_config =
  { shards = 2; heartbeat = 120.0; wall = 3600.0; inject = None }

(* Failures of one lease before it is bisected (or its one cell
   poisoned); the base retry delay, doubled per attempt; and the s a
   dial-in pool may sit with work pending but no lease held before the
   campaign degrades to the in-process fallback. *)
let max_attempts = 2
let backoff = 0.25
let accept_wall = 60.0

(* Dial-in source ([--listen]): remote workers dial in, so a campaign
   spans machines.  They must present the campaign [token], a matching
   protocol version and the supervisor's own campaign identity before
   they are leased any work. *)
type pool_config = {
  pl_listen : string; (* HOST:PORT to bind; port 0 picks one *)
  pl_token : string; (* shared campaign secret for the handshake *)
  pl_campaign : string; (* [Campaign.identity] every worker must match *)
}

let default_pool_config =
  { pl_listen = "127.0.0.1:0"; pl_token = "protean"; pl_campaign = "" }

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

(* Close [tr] and reap its process: its (status text, clean exit). *)
let hang_up tr =
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  close tr.t_write;
  let status = tr.t_wait () in
  if tr.t_read <> tr.t_write then close tr.t_read;
  Option.iter close tr.t_err;
  status

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
(* Result ledger                                                       *)
(* ------------------------------------------------------------------ *)

(* Which cells are resolved, and the final deterministic merge.
   Commutative bookkeeping — results can arrive from any worker in any
   order and the merge is still byte-identical to a serial run. *)
module Ledger = struct
  type t = {
    g_cells : Shard.cell list;
    g_results : (int, outcome) Hashtbl.t;
    mutable g_faults : int;
  }

  let create cells =
    { g_cells = cells; g_results = Hashtbl.create 64; g_faults = 0 }

  let have t id = Hashtbl.mem t.g_results id

  (* [true] when [id] was not resolved before. *)
  let record_ok t id r =
    (not (have t id))
    && begin
         Hashtbl.replace t.g_results id (O_ok r);
         true
       end

  (* A structured fault is final: no retry or bisection rescues it.  The
     [Poisoned] event, when [id] was not resolved before. *)
  let poison t ~attempts id reason =
    if have t id then None
    else begin
      t.g_faults <- t.g_faults + 1;
      let key =
        match List.find_opt (fun c -> c.Shard.c_id = id) t.g_cells with
        | Some c -> c.Shard.c_key
        | None -> ""
      in
      Hashtbl.replace t.g_results id
        (O_fault { f_key = key; f_attempts = attempts; f_reason = reason });
      Some (Poisoned { cell = id; key; attempts; reason })
    end

  let remaining t =
    List.filter (fun c -> not (have t c.Shard.c_id)) t.g_cells

  let finish ~emit t =
    emit (Merged { cells = List.length t.g_cells; faults = t.g_faults });
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

(* ------------------------------------------------------------------ *)
(* The lease machine                                                   *)
(* ------------------------------------------------------------------ *)

(* Every lease decision, with no I/O and no clock of its own: [step]
   takes one input at time [now] and returns the actions for the shell
   to perform, in order.  The shell feeds what an action caused (a
   failed write or spawn, the EOF after a kill) straight back as the
   next input. *)
module Machine = struct
  (* A batch of cells, waiting in the queue or held by a member. *)
  type lease = {
    shard : int; (* display id *)
    cells : Shard.cell list;
    attempt : int;
    not_before : float;
  }

  (* A pool member: one worker of either source.  It holds at most one
     lease at a time, so a dead member forfeits exactly one batch.  [id]
     is a spawn's slot (0..shards-1, which its replacement reuses) or a
     dial-in's accept number. *)
  type member = {
    id : int;
    spawned : bool; (* exec'd on a pipe: SIGKILLed and reaped *)
    peer : string;
    dec : Shard.Decoder.t;
    mutable authed : bool; (* spawns join pre-authenticated *)
    mutable last : float; (* last bytes received (liveness) *)
    mutable lease : lease option;
    mutable leased_at : float;
    mutable grants : int;
    mutable failure : string option;
        (* why the machine ended it; then only its [Eof] is left *)
  }

  type input =
    | Accepted of { member : int; peer : string } (* a dial-in connected *)
    | Received of { member : int; data : Bytes.t; len : int }
        (* the first [len] bytes of [data], copied before [step] returns *)
    | Eof of { member : int; status : string * bool }
        (* the member hung up and was reaped: (status text, clean exit) *)
    | Read_failed of int
    | Write_failed of { member : int; frame : Shard.frame; reason : string }
    | Spawn_failed of string (* why exec failed *)
    | Tick

  type action =
    | Spawn_into of
        { slot : int; attempt : int; env_fault : string option; cells : int }
        (* the shell hands out the [Spawn] event, with the pid *)
    | Send of { member : int; frame : Shard.frame; sent : event option }
        (* [sent] is handed out once the frame is written *)
    | Kill_member of int (* SIGKILL, then as [Drop_member] *)
    | Drop_member of int (* hang up, reap, and answer with [Eof] *)
    | Result of int * Json.t (* for [on_result] *)
    | Event of event

  type t = {
    cfg : config;
    pool : pool_config option;
    ledger : Ledger.t;
    hb_expired : string; (* why a member past its deadline is ended *)
    wall_expired : string;
    mutable pending : lease list;
    mutable members : member list; (* newest first *)
    spawns : int array; (* spawns per slot so far: the next one's attempt *)
    mutable next_shard : int;
    mutable progress : float; (* last connect, grant or result *)
    mutable exit_sent : float option; (* when the spawns were told to exit *)
    mutable aborted : string option; (* the pool gave up: fall back *)
    mutable next_deadline : float;
        (* the earliest time a [Tick] has something to do: a member's
           deadline, a backoff's end, or the accept wall *)
    mutable out : action list; (* this step's actions, newest first *)
  }

  let create ~now ?pool cfg ledger leases =
    let lease shard cells = { shard; cells; attempt = 1; not_before = 0.0 } in
    {
      cfg;
      pool;
      ledger;
      hb_expired =
        Printf.sprintf "heartbeat deadline (%.0fs) expired" cfg.heartbeat;
      wall_expired =
        Printf.sprintf "wall-clock budget (%.0fs) expired" cfg.wall;
      pending = List.mapi lease leases;
      members = [];
      spawns = Array.make cfg.shards 0;
      next_shard = List.length leases;
      progress = now;
      exit_sent = None;
      aborted = None;
      next_deadline = now;
      out = [];
    }

  let act t a = t.out <- a :: t.out
  let event t e = act t (Event e)
  let find t id = List.find_opt (fun m -> m.id = id) t.members
  let shard m = match m.lease with Some p -> p.shard | None -> m.id
  let shard_of t id = match find t id with Some m -> shard m | None -> id
  let busy t = List.exists (fun m -> m.lease <> None) t.members
  let work_done t = t.pending = [] && not (busy t)
  let abort t reason = if t.aborted = None then t.aborted <- Some reason

  (* Nothing left to do: the pool gave up, or the work is done and (with
     spawns) every spawn is reaped. *)
  let finished t =
    t.aborted <> None || (work_done t && (t.pool <> None || t.members = []))

  (* Failure disposition: retry with exponential backoff while the
     attempt budget lasts, then bisect a multi-cell lease towards the
     failing cell, and poison a single cell that keeps failing. *)
  let requeue t ~now p reason =
    match
      List.filter (fun c -> not (Ledger.have t.ledger c.Shard.c_id)) p.cells
    with
    | [] -> ()
    | rest when p.attempt < max_attempts ->
        let delay = backoff *. (2.0 ** float_of_int (p.attempt - 1)) in
        let attempt = p.attempt + 1 in
        event t (Retry { shard = p.shard; attempt; delay });
        let not_before = now +. delay in
        t.pending <- t.pending @ [ { p with cells = rest; attempt; not_before } ]
    | [ c ] ->
        Option.iter (event t)
          (Ledger.poison t.ledger ~attempts:p.attempt c.Shard.c_id reason)
    | rest ->
        (* Bisect: narrow the failing lease towards the poisoned cell;
           each half restarts its attempt budget. *)
        let mid = List.length rest / 2 in
        let left = List.filteri (fun i _ -> i < mid) rest in
        let right = List.filteri (fun i _ -> i >= mid) rest in
        event t
          (Bisect
             {
               shard = p.shard;
               left = List.length left;
               right = List.length right;
             });
        let half cells =
          t.next_shard <- t.next_shard + 1;
          let not_before = now +. backoff in
          { shard = t.next_shard - 1; cells; attempt = 1; not_before }
        in
        t.pending <- t.pending @ [ half left; half right ]

  (* End [m] for [failure]: the shell hangs up (SIGKILLing a spawn first
     when [kill]) and answers with its [Eof], which retires it. *)
  let drop t ?(kill = false) m failure =
    if m.failure = None then begin
      m.failure <- Some failure;
      if kill && m.spawned then begin
        event t (Kill { shard = m.id; reason = failure });
        act t (Kill_member m.id)
      end
      else act t (Drop_member m.id)
    end

  (* Take [m] out of the pool and requeue a lease it still holds — for
     the failure the machine ended it with, else for what its EOF
     means. *)
  let retire t ~now m (status, clean) =
    t.members <- List.filter (fun x -> x != m) t.members;
    let reason =
      if not m.spawned then begin
        let reason = Option.value m.failure ~default:"connection closed" in
        if m.authed then event t (Worker_disconnected { worker = m.id; reason });
        reason
      end
      else begin
        let truncated = Shard.Decoder.pending_bytes m.dec > 0 in
        let ok =
          m.failure = None && clean && (not truncated) && m.lease = None
        in
        event t (Worker_exit { shard = m.id; status; ok });
        match m.failure with
        | Some r -> r
        | None when truncated ->
            Printf.sprintf "worker died mid-frame (%s)" status
        | None -> Printf.sprintf "worker crashed (%s)" status
      end
    in
    Option.iter (fun p -> requeue t ~now p reason) m.lease

  let join t ~now ~id ~spawned ~peer =
    let m =
      {
        id;
        spawned;
        peer;
        dec = Shard.Decoder.create ();
        authed = spawned;
        last = now;
        lease = None;
        leased_at = 0.0;
        grants = 0;
        failure = None;
      }
    in
    t.members <- m :: t.members;
    m

  let lease t ~now m p =
    m.lease <- Some p;
    m.leased_at <- now;
    m.last <- now;
    m.grants <- m.grants + 1;
    t.progress <- now;
    let cells = List.length p.cells in
    let granted =
      Lease_granted
        { shard = p.shard; worker = m.id; cells; attempt = p.attempt }
    in
    let frame = Shard.F_work p.cells in
    act t (Send { member = m.id; frame; sent = Some granted })

  (* A slot no spawn occupies, when workers are spawned at all. *)
  let free_slot t =
    if t.pool <> None then None
    else
      List.find_opt
        (fun s -> not (List.exists (fun m -> m.id = s) t.members))
        (List.init t.cfg.shards Fun.id)

  (* The lease dispatcher, while fewer than [shards] leases are out:
     grant [p] to an idle member, else to a new spawn in a free slot.  A
     one-shot worker fault arms only the first spawn, slot 0's; a
     persistent one arms every spawn. *)
  let grant t ~now p =
    List.length (List.filter (fun m -> m.lease <> None) t.members)
    < t.cfg.shards
    &&
    match
      List.find_opt
        (fun m -> m.authed && m.lease = None && m.failure = None)
        t.members
    with
    | Some m ->
        lease t ~now m p;
        true
    | None -> (
        match free_slot t with
        | None -> false
        | Some slot ->
            t.spawns.(slot) <- t.spawns.(slot) + 1;
            let attempt = t.spawns.(slot) in
            let env_fault =
              match t.cfg.inject with
              | Some mode
                when Fault_inject.worker_mode_persistent mode
                     || (slot = 0 && attempt = 1) ->
                  Some (Fault_inject.worker_mode_name mode)
              | _ -> None
            in
            let cells = List.length p.cells in
            act t (Spawn_into { slot; attempt; env_fault; cells });
            lease t ~now (join t ~now ~id:slot ~spawned:true ~peer:"pipe") p;
            true)

  let dispatch t ~now =
    let due, later = List.partition (fun p -> p.not_before <= now) t.pending in
    let waiting = List.filter (fun p -> not (grant t ~now p)) due in
    t.pending <- waiting @ later

  let reject t m reason =
    event t (Worker_rejected { peer = m.peer; reason });
    act t (Send { member = m.id; frame = Shard.F_reject reason; sent = None });
    drop t m reason

  let handshake t ~now m frame =
    let token, campaign =
      match t.pool with Some p -> (p.pl_token, p.pl_campaign) | None -> ("", "")
    in
    match frame with
    | Shard.F_hello { h_version; _ } when h_version <> Shard.protocol_version ->
        reject t m
          (Printf.sprintf "protocol version %d (supervisor speaks %d)" h_version
             Shard.protocol_version)
    | Shard.F_hello { h_token; _ } when h_token <> token ->
        reject t m "bad campaign token"
    | Shard.F_hello { h_campaign; _ } when h_campaign <> campaign ->
        reject t m
          (Printf.sprintf "campaign %S (supervisor runs %S)" h_campaign campaign)
    | Shard.F_hello _ ->
        m.authed <- true;
        t.progress <- now;
        event t (Worker_connected { worker = m.id; peer = m.peer });
        let welcome = Shard.F_welcome Shard.protocol_version in
        act t (Send { member = m.id; frame = welcome; sent = None })
    | _ -> reject t m "frame before handshake"

  let handle_frame t ~now m frame =
    let holds id =
      match m.lease with
      | Some p -> List.exists (fun c -> c.Shard.c_id = id) p.cells
      | None -> false
    in
    match frame with
    | _ when not m.authed -> handshake t ~now m frame
    | Shard.F_result (id, _) | Shard.F_cellfault { fc_id = id; _ }
      when not (holds id) ->
        (* An outcome counts only from the member leasing its cell. *)
        Shard.protocol_error "cell %d is not in the worker's lease" id
    | Shard.F_hb cell -> event t (Heartbeat { shard = shard m; cell })
    | Shard.F_result (id, r) ->
        if Ledger.record_ok t.ledger id r then act t (Result (id, r));
        t.progress <- now;
        event t (Cell_done { shard = shard m; cell = id })
    | Shard.F_cellfault { fc_id; fc_reason } ->
        (* The worker caught the failure itself: a structured fault,
           final immediately — no retry or bisection needed. *)
        let attempts = match m.lease with Some p -> p.attempt | None -> 1 in
        Option.iter (event t)
          (Ledger.poison t.ledger ~attempts fc_id fc_reason);
        t.progress <- now;
        event t
          (Cell_fault { shard = shard m; cell = fc_id; reason = fc_reason })
    | Shard.F_log line -> event t (Worker_log { shard = shard m; line })
    | Shard.F_done -> (
        (* The results are all in — or the missing ones (a dropped frame)
           are requeued, never invented.  The member stays for the next
           lease. *)
        match m.lease with
        | None -> ()
        | Some p ->
            m.lease <- None;
            requeue t ~now p "lease completed with missing results")
    | Shard.F_hello _ | Shard.F_work _ | Shard.F_exit | Shard.F_welcome _
    | Shard.F_reject _ ->
        ()

  let receive t ~now m data len =
    m.last <- now;
    Shard.Decoder.feed m.dec data 0 len;
    let rec pop () =
      if m.failure = None then
        match Shard.Decoder.next m.dec with
        | Some f ->
            handle_frame t ~now m f;
            pop ()
        | None -> ()
    in
    try pop ()
    with Json.Parse msg | Shard.Protocol msg ->
      drop t ~kill:true m ("protocol corruption: " ^ msg)

  (* Writing [frame] to [m] failed, and [m] is gone.  A fresh spawn's
     first frame means exec failed: degrade to in-process execution for
     everything not yet computed.  A lease granted to [m] never left
     (its [work] frame failed, or the [welcome] queued before it), so it
     goes back to the queue without burning an attempt.  An [exit] that
     cannot be delivered changes nothing: its EOF or deadline ends the
     spawn. *)
  let write_failed t m frame reason =
    match m.lease with
    | _ when m.failure <> None || t.exit_sent <> None -> ()
    | Some _ when m.spawned && m.grants = 1 ->
        abort t ("spawn failed: " ^ reason)
    | Some p ->
        m.lease <- None;
        t.pending <- p :: t.pending;
        let at_grant =
          match frame with Shard.F_work _ -> " at lease grant" | _ -> ""
        in
        drop t m ("write failed" ^ at_grant)
    | None -> drop t m "write failed"

  (* When [m] must next show signs of life, and why it is ended if it
     does not: an unauthenticated dial-in gets a short handshake budget;
     a member holding a lease the heartbeat and per-lease wall-clock
     budgets.  An idle member has none, until it is told to exit: then
     it has the heartbeat budget to be reaped. *)
  let deadline t m =
    let hb = t.cfg.heartbeat in
    if m.failure <> None then None
    else if not m.authed then
      Some (m.last +. Float.min hb 10.0, "handshake deadline expired")
    else
      match m.lease with
      | Some _ when m.leased_at +. t.cfg.wall < m.last +. hb ->
          Some (m.leased_at +. t.cfg.wall, t.wall_expired)
      | Some _ -> Some (m.last +. hb, t.hb_expired)
      | None -> Option.map (fun e -> (e +. hb, t.hb_expired)) t.exit_sent

  (* What is due after every input: grant the due leases, once the work
     is done tell every spawn to exit, end the members past their
     deadline, and give up a dial-in pool that has sat with work and no
     lease for [accept_wall].  Then note when the next of these falls
     due. *)
  let advance t ~now =
    let next = ref infinity in
    let at d = next := Float.min !next d in
    if t.aborted = None then begin
      dispatch t ~now;
      List.iter (fun p -> if p.not_before > now then at p.not_before) t.pending;
      if t.pool = None && t.exit_sent = None && work_done t then begin
        t.exit_sent <- Some now;
        List.iter
          (fun m ->
            act t (Send { member = m.id; frame = Shard.F_exit; sent = None }))
          t.members
      end;
      List.iter
        (fun m ->
          match deadline t m with
          | Some (d, reason) when now > d -> drop t ~kill:true m reason
          | Some (d, _) -> at d
          | None -> ())
        t.members;
      if t.pool <> None && t.pending <> [] && not (busy t) then
        if now -. t.progress > accept_wall then
          abort t "worker pool gave up: no connected workers"
        else at (t.progress +. accept_wall)
    end;
    t.next_deadline <- !next

  let step t ~now input =
    let on id f = Option.iter f (find t id) in
    (match input with
    | Accepted { member; peer } ->
        ignore (join t ~now ~id:member ~spawned:false ~peer)
    | Received { member; data; len } ->
        on member (fun m -> if m.failure = None then receive t ~now m data len)
    | Eof { member; status } -> on member (fun m -> retire t ~now m status)
    | Read_failed member ->
        on member (fun m -> drop t ~kill:true m "read error")
    | Write_failed { member; frame; reason } ->
        on member (fun m -> write_failed t m frame reason)
    | Spawn_failed reason -> abort t ("spawn failed: " ^ reason)
    | Tick -> ());
    advance t ~now;
    let out = List.rev t.out in
    t.out <- [];
    out
end

(* ------------------------------------------------------------------ *)
(* The shell                                                           *)
(* ------------------------------------------------------------------ *)

(* Compute the cells of [leases] on pool members — spawned [--worker]
   processes ([worker_argv], or the [spawn] hook tests use), or, with
   [pool], dial-in workers on a TCP listener — and merge the outcomes in
   the leases' cell order.  Leases go out in order, each whole to one
   member.  The merge is byte-identical to a serial run no matter which
   worker computed what.  Each result a worker delivers is handed to
   [on_result] once, as it arrives, and every lifecycle event to
   [on_event].  [http] is a live /metrics listener polled on the same
   select.  As the last resort, [fallback] computes whatever the pool
   could not. *)
let run ?(on_event = ignore) ?spawn ?pool ?http ?(on_result = fun _ _ -> ())
    ?(worker_argv = [| Sys.executable_name; "--worker" |]) (cfg : config)
    ~(fallback : Shard.cell list -> (int * Json.t) list)
    (leases : Shard.cell list list) : (int * outcome) list =
  Shard.ignore_sigpipe ();
  let leases = List.filter (fun l -> l <> []) leases in
  let ledger = Ledger.create (List.concat leases) in
  (* Run the machine over real members until it finishes: [Some reason]
     when the pool gave up with cells still unresolved. *)
  let supervise () =
    let now = Unix.gettimeofday in
    let lsock =
      Option.map
        (fun p ->
          match Shard.listen_socket p.pl_listen with
          | Error reason ->
              raise (Listen_failed (Printf.sprintf "%s: %s" p.pl_listen reason))
          | Ok (sock, port) ->
              (* The caller (tests, log tooling) learns the real port
                 when [pl_listen] ends in ":0". *)
              on_event (Listening { addr = p.pl_listen; port });
              sock)
        pool
    in
    let m = Machine.create ~now:(now ()) ?pool cfg ledger leases in
    (* Each member's transport and its stderr not yet split into lines. *)
    let members = Hashtbl.create 8 in
    let rec feed input = List.iter perform (Machine.step m ~now:(now ()) input)
    and perform = function
      | Machine.Spawn_into _ when m.Machine.aborted <> None ->
          () (* an earlier spawn in the same batch failed *)
      | Machine.Spawn_into { slot; attempt; env_fault; cells } -> (
          match
            match spawn with
            | Some f -> f ~shard:slot ~attempt ~env_fault
            | None -> spawn_exec ~argv:worker_argv ~env_fault
          with
          | tr ->
              Hashtbl.replace members slot (tr, ref "");
              on_event (Spawn { shard = slot; attempt; pid = tr.t_pid; cells })
          | exception e -> feed (Machine.Spawn_failed (Printexc.to_string e)))
      | Machine.Send { member; frame; sent } -> (
          match Hashtbl.find_opt members member with
          | None -> ()
          | Some (tr, _) -> (
              match Shard.write_frame tr.t_write frame with
              | () -> Option.iter on_event sent
              | exception (Unix.Unix_error _ as e) ->
                  let reason = Printexc.to_string e in
                  feed (Machine.Write_failed { member; frame; reason })))
      | Machine.Kill_member id -> close ~kill:true id
      | Machine.Drop_member id -> close id
      | Machine.Result (id, r) -> on_result id r
      | Machine.Event e -> on_event e
    and close ?(kill = false) id =
      Option.iter
        (fun (tr, _) ->
          if kill then tr.t_kill ();
          Hashtbl.remove members id;
          feed (Machine.Eof { member = id; status = hang_up tr }))
        (Hashtbl.find_opt members id)
    in
    let buf = Bytes.create 65536 in
    let read fd = Shard.retry_intr (fun () -> Unix.read fd buf 0 65536) in
    let drain_err id errbuf fd =
      match read fd with
      | 0 -> ()
      | k ->
          let rec lines = function
            | [ rest ] -> errbuf := rest
            | line :: more ->
                if line <> "" then
                  on_event
                    (Worker_stderr { shard = Machine.shard_of m id; line });
                lines more
            | [] -> ()
          in
          lines (String.split_on_char '\n' (!errbuf ^ Bytes.sub_string buf 0 k))
      | exception Unix.Unix_error _ -> ()
    in
    let accepted = ref 0 in
    let accept sock =
      match Shard.retry_intr (fun () -> Unix.accept sock) with
      | fd, peer ->
          let member = !accepted in
          incr accepted;
          Hashtbl.replace members member (socket_transport fd, ref "");
          let peer = Shard.string_of_sockaddr peer in
          feed (Machine.Accepted { member; peer })
      | exception Unix.Unix_error _ -> ()
    in
    let rec loop () =
      feed Machine.Tick;
      if not (Machine.finished m) then begin
        let snapshot = List.of_seq (Hashtbl.to_seq members) in
        let fds =
          Option.to_list lsock
          @ List.concat_map
              (fun (_, (tr, _)) -> tr.t_read :: Option.to_list tr.t_err)
              snapshot
          @ match http with Some h -> Http_listener.fds h | None -> []
        in
        (* Sleep until the next deadline or backoff expiry; a lease that
           is due but waits for a worker is woken by that worker's frames
           or connection instead.  With no fds, select just sleeps. *)
        let timeout =
          Float.max 0.01 (Float.min 0.5 (m.Machine.next_deadline -. now ()))
        in
        let readable, _, _ =
          Shard.retry_intr (fun () -> Unix.select fds [] [] timeout)
        in
        Option.iter (fun h -> Http_listener.handle h readable) http;
        (match lsock with
        | Some s when List.memq s readable -> accept s
        | _ -> ());
        List.iter
          (fun (id, ((tr, errbuf) as entry)) ->
            (* Still the member the snapshot saw: a retired one's fds are
               closed, and their numbers may be reused. *)
            let live fd =
              List.memq fd readable
              &&
              match Hashtbl.find_opt members id with
              | Some e -> e == entry
              | None -> false
            in
            Option.iter (fun e -> if live e then drain_err id errbuf e) tr.t_err;
            if live tr.t_read then
              match read tr.t_read with
              | 0 -> close id
              | k ->
                  feed (Machine.Received { member = id; data = buf; len = k })
              | exception Unix.Unix_error _ -> feed (Machine.Read_failed id))
          snapshot;
        loop ()
      end
    in
    (* However the loop ends: tell every member left to exit (a dial-in
       that merely lost its connection would redial; [exit] is what ends
       it) and never leak a spawned worker. *)
    let shutdown () =
      Hashtbl.iter
        (fun _ (tr, _) ->
          (try Shard.write_frame tr.t_write Shard.F_exit
           with Unix.Unix_error _ -> ());
          tr.t_kill ();
          ignore (hang_up tr))
        members;
      Hashtbl.reset members;
      Option.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) lsock
    in
    Fun.protect ~finally:shutdown loop;
    m.Machine.aborted
  in
  let run_fallback reason =
    on_event (Fallback { reason });
    List.iter
      (fun (id, r) -> ignore (Ledger.record_ok ledger id r))
      (fallback (Ledger.remaining ledger))
  in
  (match leases with
  | [] -> ()
  | _ when pool = None && not (Shard.can_spawn ()) ->
      run_fallback "process spawning unavailable"
  | _ -> Option.iter run_fallback (supervise ()));
  Ledger.finish ~emit:on_event ledger

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
