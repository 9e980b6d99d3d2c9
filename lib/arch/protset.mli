(** Architectural ProtSet tracking (Section IV-B).

    The ProtSet is the set of architectural state elements (registers and
    memory bytes) whose contents a defense promises to keep from leaking
    transiently.  ProtISA makes it software-programmable: PROT-prefixed
    instructions add their output registers; unprefixed instructions
    remove their output registers and any memory bytes they read; stores
    label written bytes with their data operand's protection; unprefixed
    sub-register (W8) writes leave the full register unchanged.

    Initially all memory is protected and all registers unprotected.
    Memory protection is a {!Memory.t} of 0/1 bytes (1 = unprotected),
    so a query or update of an access is one word access. *)

open Protean_isa

type t

val create : unit -> t

val reg_protected : t -> Reg.t -> bool
val set_reg : t -> Reg.t -> bool -> unit

val mem_protected : t -> int64 -> int -> bool
(** True when {e any} of the [size] bytes at the address is protected. *)

val set_mem : t -> int64 -> int -> protected:bool -> unit

val src_protected : t -> Insn.src -> bool
(** Protection of a source operand (immediates are public). *)

val step : t -> Exec.effect_ -> unit
(** Advance the ProtSet across one architecturally executed instruction. *)
