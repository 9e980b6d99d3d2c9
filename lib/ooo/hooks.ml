(* The pipeline hook bus: where optional tooling observes the core.

   The core does its own bookkeeping where each event happens: the
   stage modules bump the [Stats] counters, call the policy's
   notifications ([on_rename], [on_load_executed], [on_commit]) and
   record the hardware trace.  The bus carries only what optional
   tooling consumes — the speculation-window ledger ([Spec_window]), the
   stage profiler ([Profile]), the invariant and scheduler checkers
   ([Invariants]) and tests — so a plain pipeline has no subscriber.

   Contract (see docs/architecture.md for the full table):
   - Events are emitted synchronously, in program order, at exactly the
     program points listed below, after the core's own bookkeeping at
     that point; subscribers run in registration order.
   - Subscribers may mutate state they own (a ledger, a profile) but
     must not touch the pipeline's state (ROB ring, rename map, LSQ
     counters, fetch state, stats) — the stage modules own those.
   - A subscriber may raise (the invariant checker's [Fail] mode raises
     [Pipeline_state.Sim_fault]); the emission point then unwinds, so
     raising subscribers should be registered last.
   - [emit] iterates a snapshot of the subscriber array: a handler that
     subscribes or unsubscribes (itself included) takes effect from the
     *next* emission, never mid-delivery.

   Interest mask: every event has a small integer [kind]; each
   subscriber declares the kinds it consumes and the bus keeps
   [interest], the OR of all subscriber masks.  Emission sites that
   would allocate an event record guard on [wanted bus kind] first, so
   an event nobody listens to costs one load and one bit test — no
   allocation, no subscriber loop.  [emit] additionally filters
   per-subscriber, so a handler never sees a kind it did not declare.

   The bus is parameterized over the state type to break the circular
   dependency with [Pipeline_state] (whose record carries its bus). *)

(* How a speculation window (the lifetime of an unresolved branch in the
   branch queue) ended. *)
type window_close_cause =
  | W_resolved (* branch resolved correctly: the window never diverged *)
  | W_mispredicted (* the branch itself mispredicted and squashed *)
  | W_flushed (* an older mispredict/clear truncated the branch queue *)

type event =
  | On_rename of Rob_entry.t
      (* entry renamed and inserted into the ROB, after the policy's
         [on_rename] tainted it *)
  | On_wakeup_blocked of { consumer : Rob_entry.t; producer : Rob_entry.t }
      (* the policy refused the forward this cycle (wakeup delay) *)
  | On_exec_blocked of Rob_entry.t
      (* a ready transmitter was denied execution this cycle *)
  | On_resolve_blocked of Rob_entry.t
      (* an executed branch was denied resolution this cycle *)
  | On_load_executed of Rob_entry.t
      (* a load (or pop/ret) read memory or the LSQ *)
  | On_order_violation of { store : Rob_entry.t; load : Rob_entry.t }
      (* a store's address resolved under an already-executed younger load *)
  | On_commit of Rob_entry.t
      (* after architectural effects, before ROB removal *)
  | On_cycle_end (* end of [Pipeline.step], after the watchdog *)
  | On_stage of int
      (* a pipeline stage finished this cycle (stage id, see [Profile]) *)
  | On_skip of { cycles : int }
      (* event-driven skip-ahead advanced the cycle counter by [cycles]
         quiet cycles in one jump (emitted once per skipped span, after
         the counter moved) *)
  | On_window_open of Rob_entry.t
      (* an unresolved branch entered the branch queue at rename: a
         speculation window opened (the entry is its trigger) *)
  | On_window_close of { entry : Rob_entry.t; cause : window_close_cause }
      (* the branch left the branch queue: resolved correctly,
         mispredicted (emitted before the squash), or flushed by an
         older squash *)

(* Event kinds: one bit per constructor. *)

type kind = int

let k_rename = 0
let k_wakeup_blocked = 1
let k_exec_blocked = 2
let k_resolve_blocked = 3
let k_load_executed = 4
let k_order_violation = 5
let k_commit = 6
let k_cycle_end = 7
let k_stage = 8
let k_skip = 9
let k_window_open = 10
let k_window_close = 11
let n_kinds = 12
let mask_all = (1 lsl n_kinds) - 1

let kind_of_event = function
  | On_rename _ -> k_rename
  | On_wakeup_blocked _ -> k_wakeup_blocked
  | On_exec_blocked _ -> k_exec_blocked
  | On_resolve_blocked _ -> k_resolve_blocked
  | On_load_executed _ -> k_load_executed
  | On_order_violation _ -> k_order_violation
  | On_commit _ -> k_commit
  | On_cycle_end -> k_cycle_end
  | On_stage _ -> k_stage
  | On_skip _ -> k_skip
  | On_window_open _ -> k_window_open
  | On_window_close _ -> k_window_close

let mask_of_kinds kinds =
  List.fold_left (fun m k -> m lor (1 lsl k)) 0 kinds

type 'state handler = 'state -> event -> unit

type 'state subscriber = {
  name : string;
  mask : int;
  handler : 'state handler;
  on_remove : (unit -> unit) option;
      (* finalizer run by [unsubscribe]: stateful subscribers (the
         profiler) flush partial samples here instead of dropping them *)
}

type 'state t = {
  mutable subs : 'state subscriber array;
  mutable interest : int; (* OR of every subscriber's mask *)
}

let create () = { subs = [||]; interest = 0 }

(* Fast-path guard for emission sites: does anyone care about [kind]? *)
let wanted bus kind = bus.interest land (1 lsl kind) <> 0

(* Subscribe/unsubscribe replace [bus.subs] wholesale (never mutate the
   array in place): [emit] reads the array once per emission, so handlers
   may re-register freely without corrupting an in-flight delivery. *)

let subscribe ?kinds ?on_remove bus ~name handler =
  let mask =
    match kinds with None -> mask_all | Some ks -> mask_of_kinds ks
  in
  bus.subs <- Array.append bus.subs [| { name; mask; handler; on_remove } |];
  bus.interest <- bus.interest lor mask

let unsubscribe bus name =
  let old = bus.subs in
  let n = Array.length old in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if old.(i).name <> name then incr kept
  done;
  if !kept <> n then begin
    (if !kept = 0 then bus.subs <- [||]
     else begin
       let fresh = Array.make !kept old.(0) in
       let j = ref 0 in
       for i = 0 to n - 1 do
         if old.(i).name <> name then begin
           fresh.(!j) <- old.(i);
           incr j
         end
       done;
       bus.subs <- fresh
     end);
    (* Recompute interest so the last subscriber of a kind leaving also
       clears its bit — emission sites go back to the zero-cost path. *)
    let interest = ref 0 in
    Array.iter (fun s -> interest := !interest lor s.mask) bus.subs;
    bus.interest <- !interest;
    (* Run finalizers after the subscriber array is consistent: an
       [on_remove] that re-subscribes or emits must see the bus without
       the departed subscriber. *)
    for i = 0 to n - 1 do
      if old.(i).name = name then
        match old.(i).on_remove with None -> () | Some f -> f ()
    done
  end

let subscribers bus = Array.to_list (Array.map (fun s -> s.name) bus.subs)

let emit bus state ev =
  let subs = bus.subs (* snapshot *) in
  let m = 1 lsl kind_of_event ev in
  for i = 0 to Array.length subs - 1 do
    let s = subs.(i) in
    if s.mask land m <> 0 then s.handler state ev
  done
