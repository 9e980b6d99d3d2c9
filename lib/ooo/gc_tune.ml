(* Runtime GC tuning for simulation processes.

   The cycle loop's remaining allocations are short-lived values (boxed
   Int64 results, [Sem]'s tuples, cache access records, hook events;
   ~80 minor words per cycle on the hotloop benchmark) plus pooled ROB
   entries that live exactly as long as their loop iteration.  Under the
   256k-word default minor heap a hot single-core run triggers a minor
   collection every few thousand simulated cycles, and each one promotes
   still-live pooled state to the major heap — paying the copy *and* the
   write-barrier (caml_modify darkening) tax on every subsequent
   mutation.  A larger nursery lets those generations die young.  It
   was measured at ~215 words per cycle (~20% hotloop throughput); at
   ~80 the short hotloop runs at the same rate under either size, and
   its effect on long runs and grids is unmeasured.

   [tune] is called from the CLI entry points and the benchmark driver
   — not from library code, so embedders keep control — and defers to
   any explicit user sizing (OCAMLRUNPARAM=s=..., or an earlier
   [Gc.set]): it only grows a nursery still at the runtime default. *)

let default_minor_heap = 262_144 (* words; the runtime's default *)
let tuned_minor_heap = 4 * 1024 * 1024 (* words *)

let tune () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size <= default_minor_heap then
    Gc.set { g with Gc.minor_heap_size = tuned_minor_heap }
