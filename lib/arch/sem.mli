(** Pure instruction semantics shared by the sequential architectural
    executor and the out-of-order pipeline.

    Flags are packed into an [int64] so the flags register lives in the
    ordinary register file. *)

open Protean_isa

val zf_bit : int
val sf_bit : int
val cf_bit : int
val of_bit : int

val flag : int64 -> int -> bool
val pack : zf:bool -> sf:bool -> cf:bool -> ov:bool -> int64
val flags_of_result : ?cf:bool -> ?ov:bool -> int64 -> int64

val ucompare : int64 -> int64 -> int

val eval_cond : Insn.cond -> int64 -> bool
(** Evaluate a branch condition against a packed flags value. *)

val eval_binop : Insn.binop -> int64 -> int64 -> int64 * int64
(** [(result, flags)]. *)

val eval_unop : Insn.unop -> int64 -> int64 * int64
val eval_cmp : int64 -> int64 -> int64
val eval_test : int64 -> int64 -> int64

val eval_div : int64 -> int64 -> int64
(** Unsigned division; the caller checks for a zero divisor (fault). *)

val eval_rem : int64 -> int64 -> int64

val apply_width : Insn.width -> old:int64 -> int64 -> int64
(** Register write of a given width: [W32] zero-extends (x86-64
    semantics — the source of SPT's 32-bit untaint performance issue,
    Section VII-B4c); [W8] merges into the low byte. *)

val truncate_width : Insn.width -> int64 -> int64
val effective_address : (Reg.t -> int64) -> Insn.mem -> int64

val bit_length : int64 -> int
(** Number of significant bits: the operand-dependent component of
    division latency, and the function of division operands the CT
    observer exposes (partial transmission, Section II-B1). *)
