(** Lockstep multicore simulation for multi-thread (PARSEC-style)
    workloads: one pipeline per thread sharing the last-level cache, all
    stepped cycle-by-cycle until every core halts (a barrier at program
    end — runtime is the slowest thread). *)

type result = {
  cycles : int;
  per_core : Pipeline.result array;
  finished : bool;
}

val run :
  ?squash_bug:bool ->
  ?spec_model:Policy.spec_model ->
  ?decode:
    ((Protean_isa.Reg.t * Protean_isa.Insn.role) array array
    * Protean_isa.Reg.t array array)
    array ->
  ?fuel:int ->
  ?watchdog:Pipeline.watchdog ->
  ?on_core:(int -> Pipeline.t -> unit) ->
  Config.t ->
  make_policy:(unit -> Policy.t) ->
  Protean_isa.Program.t array ->
  result
(** [decode], when given, carries one precomputed operand-template pair
    per core program (see {!Pipeline.decode_program}) so a batch of runs
    over the same programs shares the decode work.
    [make_policy] is called once per core: policies carry per-core
    mutable state.  The [watchdog] applies per core (default
    {!Pipeline.default_watchdog}).  [on_core i t] runs once per freshly
    created core before the first cycle — the registration point for
    per-core observers such as profilers and invariant checkers
    ({!Invariants.attach}).  A watchdog or checker failure raises
    {!Pipeline.Sim_fault} with [fault_core] set to the faulting core's
    index. *)
