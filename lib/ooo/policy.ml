(* The protection-mechanism interface: Spectre defenses plug into the
   pipeline through this record of hooks (Section VI).

   A policy can
   - classify and taint instructions at rename ([on_rename]),
   - gate the execution of transmitters ([transmit_frontier]: the
     speculation frontier a transmitter waits for) and the resolution
     of branches ([may_resolve]),
   - gate the forwarding of a completed instruction's results to its
     dependents ([may_forward], the AccessDelay/ProtDelay mechanism),
   - react to a load learning whether it read protected memory
     ([on_load_executed]) and to commits ([on_commit]).

   The speculation model (Section II-B2) determines when an instruction
   stops being speculative: ATCOMMIT (at the ROB head — covers all
   speculation) or CONTROL (when all older branches have resolved). *)

type spec_model = Atcommit | Control

let spec_model_name = function Atcommit -> "ATCOMMIT" | Control -> "CONTROL"

(* Frontier values.  A transmitter's execution gate
   ([transmit_frontier]) names the least speculation frontier at which it
   may execute: [now] when it may execute at once, [never] when it may
   not, and in between a sequence number.  Gates compose with [Int.min]
   for "or" and [Int.max] for "and". *)
let now = min_int
let never = max_int

type api = {
  frontier : unit -> int;
      (* the speculation frontier: the ROB head's seq under ATCOMMIT,
         the oldest unresolved branch's under CONTROL.  An entry or
         taint root is speculative exactly while its seq lies above it.
         With no live entry (ATCOMMIT) or no unresolved branch (CONTROL)
         nothing is speculative, and it is [never - 1]: above every seq,
         below [never]. *)
  peek : int -> Rob_entry.t; (* the live entry, or [Rob_entry.null] *)
  stats : Stats.t;
}

let frontier api = api.frontier ()

(* Is [e] still speculative under the configured speculation model? *)
let is_speculative api (e : Rob_entry.t) = e.Rob_entry.seq > frontier api

(* Is the access instruction with sequence number [root] still
   speculative?  Roots that already committed are never speculative. *)
let root_speculative api root = root >= 0 && root > frontier api

(* Taint inherited from the producers of [e]'s sources: the maximum of
   their taint roots (the youngest root dominates, exactly STT's
   youngest-root-of-taint).  Committed producers contribute no taint. *)
let inherited_taint api (e : Rob_entry.t) =
  let producers = e.Rob_entry.src_producer in
  let n = Array.length producers in
  let root = ref (-1) in
  for i = 0 to n - 1 do
    let p = producers.(i) in
    if p >= 0 then begin
      let prod = api.peek p in
      if not (Rob_entry.is_null prod) then
        if prod.Rob_entry.taint_root > !root then
          root := prod.Rob_entry.taint_root
    end
  done;
  !root

type t = {
  name : string;
  uses_protisa : bool;
      (* whether the pipeline should consult ProtISA protection tags
         (rename map, LSQ, L1D protection bits) for this policy *)
  on_rename : api -> Rob_entry.t -> unit;
  transmit_frontier : api -> Rob_entry.t -> int;
      (* the execution gate of memory accesses and divisions: the least
         [frontier] at which [e] may execute (see [now] and [never]).
         Asked once all of [e]'s sources are ready, it must be pure, and
         at most [e]'s own seq unless [never]: a transmitter that is no
         longer speculative may execute.  The pipeline parks a refused
         transmitter until the frontier reaches the value. *)
  may_forward : api -> Rob_entry.t -> bool;
  may_resolve : api -> Rob_entry.t -> bool;
  on_load_executed : api -> Rob_entry.t -> unit;
  on_commit : api -> Rob_entry.t -> unit;
  metrics : unit -> (string * int) list;
      (* named policy-local counters for the telemetry layer, read once
         after a run; [] when the policy keeps no private state.  Names
         become Prometheus families (protean_defense_<name>_total), so
         use lowercase snake_case nouns. *)
}

let nop_hook _ _ = ()
let always _ _ = true
let immediately _ _ = now
let no_metrics () = []

(* The unmodified out-of-order core: no protection at all. *)
let unsafe =
  {
    name = "unsafe";
    uses_protisa = false;
    on_rename = nop_hook;
    transmit_frontier = immediately;
    may_forward = always;
    may_resolve = always;
    on_load_executed = nop_hook;
    on_commit = nop_hook;
    metrics = no_metrics;
  }
