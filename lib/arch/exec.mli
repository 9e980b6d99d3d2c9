(** Sequential (architectural) execution of Protean ISA programs.

    This is the reference semantics: the out-of-order pipeline must
    produce exactly the same architectural results (enforced by property
    tests), and the SEQ execution mode of security contracts
    (Section II-C) is a run of this machine under an observer. *)

open Protean_isa

type state = {
  regs : int64 array;
  mem : Memory.t;
  mutable pc : int;
  mutable halted : bool;
  mutable steps : int;
}

(** Everything one instruction did, for observers and ProtSet tracking. *)
type effect_ = {
  e_pc : int;
  e_insn : Insn.t;
  e_next_pc : int;
  e_load : (int64 * int * int64) option;  (** address, size, value *)
  e_store : (int64 * int * int64) option;
  e_branch : (bool * int) option;  (** taken, actual target *)
  e_div : (int64 * int64) option;  (** dividend, divisor *)
  e_fault : bool;  (** division fault (suppressed architecturally) *)
  e_written : (Reg.t * int64) list;
}

val no_effect : int -> Insn.t -> int -> effect_

val init : Program.t -> state
(** Fresh state: data sections loaded (a page at a time), [rsp] at the
    stack base.  The OoO core starts from this state too. *)

val overlay : state -> (int64 * string) list -> unit
(** Apply extra memory overlays (e.g. the fuzzer's secret inputs). *)

val reg : state -> Reg.t -> int64
val set_reg : state -> Reg.t -> int64 -> unit

val step : Program.t -> state -> effect_
(** Execute the instruction at [state.pc]; running off the end of the
    code halts. *)

val lockstep :
  ?fuel:int ->
  Program.t ->
  state ->
  state ->
  before:(int -> [ `Continue | `Stop ]) ->
  after:(int -> [ `Continue | `Stop ]) ->
  unit
(** Step two states over the same program in lockstep, for relational
    (two-trace) analyses such as certificate refutation.  The pair
    advances while the pcs agree and neither machine has halted;
    [before pc] runs ahead of each paired step and [after pc] behind
    it, and either callback may stop the replay. *)

val run : ?fuel:int -> Program.t -> state -> f:(effect_ -> unit) -> unit
val run_to_halt : ?fuel:int -> Program.t -> state -> unit
