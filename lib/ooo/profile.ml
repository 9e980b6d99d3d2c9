(* Sampling stage profiler, attached through the hook bus.

   When attached it subscribes to [On_stage] (emitted by [Pipeline.step]
   after each stage, ids below), [On_cycle_end] and [On_commit], and
   accumulates
   - wall-clock seconds per pipeline stage (delta between consecutive
     stage marks within a cycle),
   - simulated-cycle attribution per program counter: each committed
     instruction adds its fetch-to-commit latency to its pc's bucket, a
     cheap "where do the cycles go" histogram.

   Cost contract: the profiler is *provably free when off*.  [k_stage]
   and [k_cycle_end] have no other default claimant, so with no profiler
   attached [Pipeline.step] skips the [On_stage] emissions entirely (one
   interest-mask test per cycle) and allocates nothing.  The per-commit
   attribution rides the always-on [On_commit] event and only costs when
   attached. *)

module S = Pipeline_state

(* Stage ids, in the order [Pipeline.step] runs them.  "skipped" is the
   pseudo-stage owning the spans event-driven skip-ahead advanced in
   bulk (simulated cycles without stage work; its wall share is the
   skip bookkeeping itself).  The final id ("between") collects
   everything outside the five stages: watchdog, invariant subscribers,
   the driver's own per-cycle work. *)
let stage_names =
  [| "commit"; "resolve"; "issue_exec"; "rename"; "fetch"; "skipped"; "between" |]

let n_stages = Array.length stage_names
let skipped_stage = n_stages - 2

type t = {
  stage_s : float array; (* wall seconds per stage id *)
  mutable last : float; (* timestamp of the previous mark *)
  mutable cycles : int; (* cycles profiled *)
  pc_cycles : (int, int) Hashtbl.t; (* pc -> summed fetch-to-commit cycles *)
  pc_commit : (int, int) Hashtbl.t;
      (* pc -> commit-gap cycles: each commit owns the simulated cycles
         since the previous commit, so summing this table plus the
         residual after the last commit reproduces the run's cycle count
         exactly — the invariant the flamegraph exporter relies on *)
  mutable commit_last : int; (* cycle of the most recent commit *)
}

let create () =
  {
    stage_s = Array.make n_stages 0.0;
    last = 0.0;
    cycles = 0;
    pc_cycles = Hashtbl.create 64;
    pc_commit = Hashtbl.create 64;
    commit_last = 0;
  }

let handler (p : t) (t : S.t) (ev : Hooks.event) =
  match ev with
  | Hooks.On_stage i ->
      let now = Unix.gettimeofday () in
      p.stage_s.(i) <- p.stage_s.(i) +. (now -. p.last);
      p.last <- now
  | Hooks.On_cycle_end ->
      let now = Unix.gettimeofday () in
      p.stage_s.(n_stages - 1) <- p.stage_s.(n_stages - 1) +. (now -. p.last);
      p.last <- now;
      p.cycles <- p.cycles + 1
  | Hooks.On_skip { cycles } ->
      (* Bulk-advanced quiet span: count the simulated cycles so
         profiled cycles still equal the pipeline's clock, and bill the
         (tiny) wall time of the jump to the pseudo-stage. *)
      let now = Unix.gettimeofday () in
      p.stage_s.(skipped_stage) <- p.stage_s.(skipped_stage) +. (now -. p.last);
      p.last <- now;
      p.cycles <- p.cycles + cycles
  | Hooks.On_commit e ->
      let pc = e.Rob_entry.pc in
      let dt = t.S.cycle - e.Rob_entry.t_fetch in
      let prev = try Hashtbl.find p.pc_cycles pc with Not_found -> 0 in
      Hashtbl.replace p.pc_cycles pc (prev + dt);
      let gap = t.S.cycle - p.commit_last in
      p.commit_last <- t.S.cycle;
      if gap > 0 then begin
        let prev = try Hashtbl.find p.pc_commit pc with Not_found -> 0 in
        Hashtbl.replace p.pc_commit pc (prev + gap)
      end
  | _ -> ()

(* A snapshot is plain data: everything a reporting layer needs to fold
   the profile into exporter formats, detached from the live tables.
   [snap_residual] is the cycles between the last commit and [cycle]
   (the pipeline's clock when the snapshot was taken): attributed to no
   pc, it is what makes [snap_flame] + residual == simulated cycles. *)
type snapshot = {
  snap_cycles : int; (* cycles profiled while attached *)
  snap_stage_s : (string * float) list; (* wall seconds per stage *)
  snap_pc_cycles : (int * int) list; (* fetch-to-commit latency per pc *)
  snap_flame : (int * int) list; (* commit-gap cycles per pc *)
  snap_residual : int; (* cycles after the last commit *)
}

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let snapshot (p : t) ~cycle =
  {
    snap_cycles = p.cycles;
    snap_stage_s =
      Array.to_list (Array.mapi (fun i s -> (stage_names.(i), s)) p.stage_s);
    snap_pc_cycles = sorted_bindings p.pc_cycles;
    snap_flame = sorted_bindings p.pc_commit;
    snap_residual = max 0 (cycle - p.commit_last);
  }

(* [sink], when given, receives a final snapshot when the profiler is
   unsubscribed — including an unsubscribe mid-run, so partial samples
   are flushed rather than silently dropped (the bus runs the finalizer
   from [Hooks.unsubscribe]). *)
let attach ?sink (p : t) (t : S.t) =
  p.last <- Unix.gettimeofday ();
  p.commit_last <- t.S.cycle;
  let on_remove =
    match sink with
    | None -> None
    | Some f -> Some (fun () -> f (snapshot p ~cycle:t.S.cycle))
  in
  Hooks.subscribe ?on_remove t.S.hooks ~name:"profile"
    ~kinds:Hooks.[ k_stage; k_cycle_end; k_commit; k_skip ]
    (handler p)

let detach (t : S.t) = Hooks.unsubscribe t.S.hooks "profile"
let total_seconds p = Array.fold_left ( +. ) 0.0 p.stage_s

(* (stage name, seconds, share of profiled time), stage order. *)
let stage_breakdown p =
  let total = total_seconds p in
  Array.to_list
    (Array.mapi
       (fun i s ->
         (stage_names.(i), p.stage_s.(i), if total > 0.0 then s /. total else 0.0))
       p.stage_s)
