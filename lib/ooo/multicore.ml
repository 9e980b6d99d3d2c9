(* Lockstep multicore simulation for the multi-thread (PARSEC-style)
   workloads: one pipeline per thread, sharing the last-level cache, all
   stepped cycle-by-cycle; the run ends when every core has halted
   (runtime = the slowest thread, a barrier at program end).

   Threads operate on disjoint address spaces (each core has its own
   memory image), so no coherence traffic is modelled; the shared L3
   still creates the capacity interactions that matter for the
   evaluation's normalized runtimes.

   Each core is the same stage-module composition as a single-core run
   ([Pipeline.step] = commit → resolve → execute → rename → fetch over
   the core's [Pipeline_state]), including the per-core watchdog and
   any per-core observers ([on_core], e.g. an invariant checker on the
   core's hook bus) — so a deadlocked or corrupted core raises a
   structured [Pipeline.Sim_fault] (tagged with its core index in
   [fault_core]) instead of silently burning fuel. *)

type result = {
  cycles : int;
  per_core : Pipeline.result array;
  finished : bool;
}

(* [on_core i t] runs once per freshly created core, before the first
   cycle — the registration point for per-core observers (profilers,
   invariant checkers). *)
let run ?squash_bug ?spec_model ?decode ?(fuel = 10_000_000)
    ?(watchdog = Pipeline.default_watchdog) ?on_core (cfg : Config.t)
    ~(make_policy : unit -> Policy.t)
    (programs : Protean_isa.Program.t array) =
  let shared_l3 = Option.map (Cache.create ~prot:false) cfg.Config.l3 in
  let cores =
    Array.mapi
      (fun i program ->
        (* [decode], when given, carries one precomputed template pair
           per core program (see [Pipeline.decode_program]). *)
        let decode =
          match decode with Some d -> Some d.(i) | None -> None
        in
        Pipeline.create ?squash_bug ?spec_model ?shared_l3 ?decode cfg
          (make_policy ()) program ~overlays:[])
      programs
  in
  (match on_core with
  | Some f -> Array.iteri f cores
  | None -> ());
  let cycles = ref 0 in
  let all_done () = Array.for_all Pipeline.is_done cores in
  (* Joint skip-ahead: per-core stepping never skips (a lone core
     jumping would break the lockstep clock every core's shared-L3
     interactions assume), but when a lockstep cycle ends with *every*
     live core quiet, all of them can jump together to the earliest of
     their next-event horizons.  Quiet cores touch no shared state (any
     L3 access coincides with per-core progress), so the joint jump is
     bit-exact for the same reason the single-core one is.  Live cores
     share the lockstep clock (a halted core's clock freezes, and its
     [quiet] is false), so one minimum serves them all; capping by
     [fuel] makes the lockstep loop terminate on the exact cycle the
     spinning run would. *)
  while (not (all_done ())) && !cycles < fuel do
    Array.iteri
      (fun i core ->
        if not (Pipeline.is_done core) then
          try Pipeline.step ~watchdog core
          with Pipeline.Sim_fault f ->
            raise (Pipeline.Sim_fault { f with Pipeline.fault_core = i }))
      cores;
    incr cycles;
    let live = ref 0 in
    let all_quiet = ref true in
    Array.iter
      (fun core ->
        if not (Pipeline.is_done core) then begin
          incr live;
          all_quiet := !all_quiet && Pipeline.quiet core
        end)
      cores;
    if !live > 0 && !all_quiet then begin
      let target = ref fuel in
      Array.iter
        (fun core ->
          if not (Pipeline.is_done core) then
            target :=
              min !target (Pipeline.skip_target ~watchdog ~until:fuel core))
        cores;
      if !target > !cycles then begin
        Array.iter
          (fun core ->
            if not (Pipeline.is_done core) then
              Pipeline.apply_skip core ~target:!target)
          cores;
        cycles := !target
      end
    end
  done;
  {
    cycles = !cycles;
    per_core = Array.map Pipeline.finish cores;
    finished = all_done ();
  }
