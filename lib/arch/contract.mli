(** SEQ-execution-mode contract traces (Section II-C).

    A contract trace is the sequence of observations an observer mode
    exposes along the sequential execution of a program.  Two inputs are
    contract-equivalent when their traces are equal; a microarchitecture
    upholds the contract when contract-equivalent inputs are also
    indistinguishable to the adversary model. *)

type trace = Observer.atom array

type result = {
  trace : trace;
  final : Exec.state;
  steps : int;
  exhausted : bool;  (** ran out of fuel before halting *)
}

val run :
  ?fuel:int ->
  Observer.mode ->
  Protean_isa.Program.t ->
  overlays:(int64 * string) list ->
  result

val traces_equal : trace -> trace -> bool

val first_divergence : trace -> trace -> int option
(** First index where two traces diverge, for diagnostics. *)
