(** Architectural registers of the Protean ISA.

    Sixteen x86-64-flavoured general-purpose registers, the flags register,
    and one hidden temporary used for micro-op sequencing.  [rsp] is the
    stack pointer, treated specially by ProtCC-UNR (it never holds secret
    program data). *)

type t = private int

val count : int
(** Total number of architectural registers, including [flags] and [tmp]. *)

val rax : t
val rcx : t
val rdx : t
val rbx : t
val rsp : t
val rbp : t
val rsi : t
val rdi : t
val r8 : t
val r9 : t
val r10 : t
val r11 : t
val r12 : t
val r13 : t
val r14 : t
val r15 : t

val flags : t
(** The condition-flags register, an implicit output of arithmetic
    instructions and the implicit input of conditional branches. *)

val tmp : t
(** Hidden temporary register, not visible to compiled code. *)

val is_gpr : t -> bool

val of_int : int -> t
(** [of_int i] is register number [i].  Raises [Invalid_argument] when [i]
    is out of range. *)

val to_int : t -> int

val all_gprs : t list
(** The sixteen general-purpose registers, in numbering order. *)

val all : t list
(** Every architectural register, including [flags] and [tmp]. *)

val name : t -> string
val of_name : string -> t
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
