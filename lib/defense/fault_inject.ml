(* Deliberate fault injection into defenses, used to self-test the
   fuzzer (mutation testing for the security harness): each mode breaks
   one layer of a protection mechanism in a way that must show up as a
   contract violation.  A campaign that does NOT flag an injected fault
   has a detector gap — its passing verdicts on the real defenses carry
   no weight.

   Faults wrap an existing [Defense.t]'s policy hooks; the pipeline and
   the defense itself are untouched, exactly like a hardware bug slipping
   into one gate of the implementation. *)

open Protean_ooo

type mode =
  | F_unprotect
      (* clear ProtISA protection bits (sources and output) at rename:
         models a rename-map tag bit stuck at zero *)
  | F_drop_taint
      (* drop the taint root of loads after rename: models a broken
         taint-propagation network (STT/ProtTrack YRoT lost) *)
  | F_corrupt_predictor
      (* force no-access predictions on every load and disable the
         false-negative (ProtDelay fallback) recovery: models a corrupted
         access predictor with broken misprediction handling *)
  | F_open_execute_gate
      (* transmitters always allowed to execute speculatively *)
  | F_open_forward_gate
      (* completed results always forwarded to dependents immediately *)
  | F_open_resolve_gate
      (* branches always allowed to resolve (and squash) immediately *)

let all_modes =
  [
    F_unprotect;
    F_drop_taint;
    F_corrupt_predictor;
    F_open_execute_gate;
    F_open_forward_gate;
    F_open_resolve_gate;
  ]

let mode_name = function
  | F_unprotect -> "unprotect"
  | F_drop_taint -> "drop-taint"
  | F_corrupt_predictor -> "corrupt-predictor"
  | F_open_execute_gate -> "open-execute-gate"
  | F_open_forward_gate -> "open-forward-gate"
  | F_open_resolve_gate -> "open-resolve-gate"

let mode_of_string s =
  match List.find_opt (fun m -> String.equal (mode_name m) s) all_modes with
  | Some m -> m
  | None -> invalid_arg ("Fault_inject.mode_of_string: " ^ s)

let mode_description = function
  | F_unprotect -> "protection bits cleared at rename"
  | F_drop_taint -> "taint roots of loads dropped"
  | F_corrupt_predictor -> "access predictor forced no-access, fallback dead"
  | F_open_execute_gate -> "transmitter execution gate stuck open"
  | F_open_forward_gate -> "wakeup/forwarding gate stuck open"
  | F_open_resolve_gate -> "branch-resolution gate stuck open"

let wrap mode (p : Policy.t) : Policy.t =
  match mode with
  | F_unprotect ->
      {
        p with
        Policy.on_rename =
          (fun api (e : Rob_entry.t) ->
            Array.iteri
              (fun i _ -> e.Rob_entry.src_prot.(i) <- false)
              e.Rob_entry.src_prot;
            e.Rob_entry.out_prot <- false;
            p.Policy.on_rename api e);
      }
  | F_drop_taint ->
      {
        p with
        Policy.on_rename =
          (fun api (e : Rob_entry.t) ->
            p.Policy.on_rename api e;
            if Rob_entry.is_load e then e.Rob_entry.taint_root <- -1);
      }
  | F_corrupt_predictor ->
      {
        p with
        Policy.on_rename =
          (fun api (e : Rob_entry.t) ->
            p.Policy.on_rename api e;
            if Rob_entry.is_load e then begin
              e.Rob_entry.pred_no_access <- true;
              e.Rob_entry.access_at_rename <- false;
              e.Rob_entry.taint_root <- Policy.inherited_taint api e
            end);
        on_load_executed = Policy.nop_hook;
      }
  | F_open_execute_gate ->
      { p with Policy.transmit_frontier = Policy.immediately }
  | F_open_forward_gate -> { p with Policy.may_forward = Policy.always }
  | F_open_resolve_gate -> { p with Policy.may_resolve = Policy.always }

let inject mode (d : Defense.t) : Defense.t =
  {
    Defense.id = d.Defense.id ^ "+" ^ mode_name mode;
    description =
      Printf.sprintf "%s with injected fault: %s" d.Defense.description
        (mode_description mode);
    make = (fun () -> wrap mode (d.Defense.make ()));
  }

(* --- ProtCC pass-mutation fault injection ---------------------------- *)

(* The certificate checker (Protean_protcc.Certify) is self-tested the
   same way the contract-violation detectors are: these modes mutate a
   *compiler pass result* — the instrumented binary and/or its
   protection certificates — the way a broken dataflow analysis would,
   and the checker must refute each one as a structured Cert_violation.
   A checker that stays green under an injected pass bug has an audit
   gap.

   - [CF_drop_prot]: the first installed PROT prefix of every certified
     function is dropped, and the certificate's bookkeeping is updated
     to match (models a pass whose emission step loses a protection it
     proved necessary; the static audit must find the uncovered
     output);
   - [CF_widen_safe]: every forward claim is widened to the full
     register set while the binary is untouched (models an analysis
     whose transfer function is unsound-optimistic; only the dynamic
     executor-backed replay can refute value-equality claims);
   - [CF_stale_fact]: each certificate point keeps its installed
     instrumentation but takes the dataflow facts of its successor
     point (models an off-by-one between analysis and emission — stale
     facts justifying the wrong instruction). *)

module Pcc = Protean_protcc

type cert_mode = CF_drop_prot | CF_widen_safe | CF_stale_fact

let cert_modes = [ CF_drop_prot; CF_widen_safe; CF_stale_fact ]

let cert_mode_name = function
  | CF_drop_prot -> "cert-drop-prot"
  | CF_widen_safe -> "cert-widen-safe"
  | CF_stale_fact -> "cert-stale-fact"

let cert_mode_of_string s =
  match
    List.find_opt (fun m -> String.equal (cert_mode_name m) s) cert_modes
  with
  | Some m -> m
  | None -> invalid_arg ("Fault_inject.cert_mode_of_string: " ^ s)

let mutate_cert mode (res : Pcc.Protcc.result) (code : Protean_isa.Insn.t array)
    (c : Pcc.Certificate.t) =
  let open Pcc in
  if Certificate.claims_nothing c then c
  else
    let n = Array.length c.Certificate.points in
    match mode with
    | CF_drop_prot -> (
        let first_prot = ref None in
        Array.iteri
          (fun i (p : Certificate.point) ->
            if !first_prot = None && p.Certificate.prot then
              first_prot := Some i)
          c.Certificate.points;
        match !first_prot with
        | None -> c
        | Some i ->
            let np = res.Protcc.old_to_new.(c.Certificate.lo + i + 1) - 1 in
            code.(np) <-
              { (code.(np)) with Protean_isa.Insn.prot = false };
            let points = Array.copy c.Certificate.points in
            points.(i) <- { (points.(i)) with Certificate.prot = false };
            { c with Certificate.points })
    | CF_widen_safe ->
        let points =
          Array.map
            (fun (p : Certificate.point) ->
              {
                p with
                Certificate.fwd_before = Regset.full;
                fwd_after = Regset.full;
              })
            c.Certificate.points
        in
        { c with Certificate.points }
    | CF_stale_fact ->
        if n < 2 then c
        else
          let points =
            Array.init n (fun i ->
                let own = c.Certificate.points.(i) in
                let next = c.Certificate.points.((i + 1) mod n) in
                {
                  next with
                  Certificate.prot = own.Certificate.prot;
                  unprotect_before = own.Certificate.unprotect_before;
                })
          in
          { c with Certificate.points }

(* Apply a pass mutation to a compile result: the returned result is
   what a buggy pass would have produced.  [CF_drop_prot] changes the
   binary itself; the other modes corrupt only the certificates. *)
let mutate mode (res : Pcc.Protcc.result) : Pcc.Protcc.result =
  let code = Array.copy res.Pcc.Protcc.program.Protean_isa.Program.code in
  let certs = List.map (mutate_cert mode res code) res.Pcc.Protcc.certs in
  {
    res with
    Pcc.Protcc.program =
      Protean_isa.Program.with_code res.Pcc.Protcc.program code;
    certs;
  }

(* --- worker-level fault injection ------------------------------------ *)

(* The supervised-execution layer (Protean_harness.Supervisor) is
   self-tested the same way the detectors are: these modes break a
   *worker process* instead of a defense layer, and the supervisor's
   recovery paths (heartbeat kill, retry, bisection) must absorb each
   one without corrupting the merged output.

   - [WF_kill]: the worker SIGKILLs itself after its first result frame
     (models an OOM kill or segfault mid-shard; transient — retries are
     clean, so every cell still completes);
   - [WF_stall]: the worker stops sending frames and sleeps (models a
     hung simulation; the supervisor's heartbeat deadline must fire);
   - [WF_truncate]: the worker emits a truncated result frame and exits
     (models a crash mid-write; the frame decoder must not accept it);
   - [WF_poison n]: the worker aborts whenever asked to compute the
     cell with global id [n], on *every* attempt (models a cell whose
     simulation segfaults deterministically; the supervisor must bisect
     down to it, report a structured fault, and complete the rest). *)
type worker_mode =
  | WF_kill
  | WF_stall
  | WF_truncate
  | WF_poison of int

let worker_mode_name = function
  | WF_kill -> "worker-kill"
  | WF_stall -> "worker-stall"
  | WF_truncate -> "worker-truncate"
  | WF_poison n -> Printf.sprintf "worker-poison:%d" n

let worker_mode_of_string s =
  match s with
  | "worker-kill" -> WF_kill
  | "worker-stall" -> WF_stall
  | "worker-truncate" -> WF_truncate
  | _ ->
      let prefix = "worker-poison:" in
      let plen = String.length prefix in
      if String.length s > plen && String.sub s 0 plen = prefix then
        match int_of_string_opt (String.sub s plen (String.length s - plen)) with
        | Some n when n >= 0 -> WF_poison n
        | _ -> invalid_arg ("Fault_inject.worker_mode_of_string: " ^ s)
      else invalid_arg ("Fault_inject.worker_mode_of_string: " ^ s)

(* [WF_poison] is deterministic per cell, so it must stay armed across
   retries for bisection to isolate the cell; the other modes model
   one-off crashes and are armed only on the first spawn. *)
let worker_mode_persistent = function
  | WF_poison _ -> true
  | WF_kill | WF_stall | WF_truncate -> false

(* Environment variable through which a supervisor arms a fault in the
   worker process it spawns. *)
let worker_env = "PROTEAN_WORKER_FAULT"

(* --- network-level fault injection ----------------------------------- *)

(* The TCP shard transport (Protean_harness.Shard.Transport) is hardened
   the same way: these modes corrupt the *byte stream between supervisor
   and worker* instead of the worker process, modelling the failure
   modes of a real network.  Applied at the transport seam (every frame
   send passes through it), so pipe and socket transports are faulted
   identically.  The campaign must still complete with byte-identical
   merged output: the supervisor treats a corrupted or half-closed
   connection as a dead worker and re-dispatches its lease.

   - [NF_drop n]: the nth frame sent is silently discarded (a lost
     datagram / a switch eating a segment): the peer sees a gap — a
     missing result must be re-dispatched, never invented;
   - [NF_garbage n]: the nth frame is replaced by garbage bytes whose
     length prefix is invalid, poisoning the stream (bit corruption /
     a confused middlebox): the peer's decoder must reject it as a
     structured protocol fault, not allocate gigabytes;
   - [NF_delay s]: every send stalls [s] seconds first (congestion);
     correctness must not depend on latency;
   - [NF_half_close n]: before the nth frame the sender shuts down its
     write side and stops (a half-open TCP connection): the peer sees
     clean EOF mid-lease;
   - [NF_short_write n]: the nth frame is cut off after a few bytes and
     the write side shut down (sender crashed mid-write): the peer sees
     a truncated frame.

   All modes except [NF_delay] fire exactly once per *process* (tracked
   by the transport layer), so a worker that reconnects after its own
   injected fault serves cleanly — which is exactly the reconnect path
   chaos tests need to exercise. *)
type net_mode =
  | NF_drop of int
  | NF_garbage of int
  | NF_delay of float
  | NF_half_close of int
  | NF_short_write of int

let net_mode_name = function
  | NF_drop n -> Printf.sprintf "net-drop:%d" n
  | NF_garbage n -> Printf.sprintf "net-garbage:%d" n
  | NF_delay s -> Printf.sprintf "net-delay:%g" s
  | NF_half_close n -> Printf.sprintf "net-half-close:%d" n
  | NF_short_write n -> Printf.sprintf "net-short-write:%d" n

let net_mode_of_string s =
  let num prefix of_tok mk =
    let plen = String.length prefix in
    if String.length s > plen && String.sub s 0 plen = prefix then
      match of_tok (String.sub s plen (String.length s - plen)) with
      | Some n -> Some (mk n)
      | None -> invalid_arg ("Fault_inject.net_mode_of_string: " ^ s)
    else None
  in
  let pos_int tok =
    match int_of_string_opt tok with Some n when n >= 1 -> Some n | _ -> None
  in
  let pos_float tok =
    match float_of_string_opt tok with
    | Some f when f >= 0.0 -> Some f
    | _ -> None
  in
  let candidates =
    [
      num "net-drop:" pos_int (fun n -> NF_drop n);
      num "net-garbage:" pos_int (fun n -> NF_garbage n);
      num "net-delay:" pos_float (fun f -> NF_delay f);
      num "net-half-close:" pos_int (fun n -> NF_half_close n);
      num "net-short-write:" pos_int (fun n -> NF_short_write n);
    ]
  in
  match List.find_opt Option.is_some candidates with
  | Some (Some m) -> m
  | _ -> invalid_arg ("Fault_inject.net_mode_of_string: " ^ s)

(* Environment variable through which a chaos harness arms a network
   fault in a worker process (read by the transport layer at dial-in). *)
let net_env = "PROTEAN_NET_FAULT"
