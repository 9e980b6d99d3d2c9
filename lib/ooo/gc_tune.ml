(* Runtime GC tuning for simulation processes.

   The cycle loop's remaining allocations are short-lived values (boxed
   Int64 results, [Sem]'s tuples, cache access records; ~45 minor words
   per cycle on the hotloop benchmark, ~25 over the Table V grid) plus
   pooled ROB entries that live exactly as long as their loop iteration.
   Under the 256k-word default minor heap a hot single-core run triggers
   a minor collection every few thousand simulated cycles, and each one
   promotes still-live pooled state to the major heap — paying the copy
   *and* the write-barrier (caml_modify darkening) tax on every
   subsequent mutation.  A larger nursery lets those generations die
   young.  It was measured at ~215 words per cycle (~20% hotloop
   throughput, with a 4M-word nursery).

   The nursery is 1M words: at today's allocation rate that spaces minor
   collections as far apart in simulated cycles as 4M words did at
   ~100 words per cycle.  It is no larger because its resident part is
   not steady.  OCaml 5 runs a major slice when the nursery is half
   full, and a process touches either about half of the nursery or all
   of it, depending on where its major cycles happen to end.  With 4M
   words (32 MB) a `table-v --shards 2` worker peaked at 42-46 MB or at
   54-62 MB, decided by which leases it drew; with 1M words the two
   outcomes are at most 4 MB apart.  The serial grid, the sharded grid
   and a fuzz campaign took the same wall time under either size, within
   their run-to-run spread (2-core host, release).

   [tune] is called from the CLI entry points and the benchmark driver
   — not from library code, so embedders keep control — and defers to
   any explicit user sizing (OCAMLRUNPARAM=s=..., or an earlier
   [Gc.set]): it only grows a nursery still at the runtime default. *)

let default_minor_heap = 262_144 (* words; the runtime's default *)
let tuned_minor_heap = 1024 * 1024 (* words *)

let tune () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size <= default_minor_heap then
    Gc.set { g with Gc.minor_heap_size = tuned_minor_heap }
