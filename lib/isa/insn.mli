(** Instructions of the Protean ISA, including the [PROT] prefix.

    The [prot] bit on every instruction models ProtISA's single instruction
    prefix (Section IV of the paper): a PROT-prefixed instruction adds its
    output registers to the architectural ProtSet; an unprefixed instruction
    removes its output registers and any memory bytes it reads from the
    ProtSet. *)

type width = W8 | W32 | W64
(** Destination width of data operations.  [W32] writes zero-extend into the
    full 64-bit register (as on x86-64); [W8] writes merge into the low
    byte, so the destination also counts as a read. *)

type binop = Add | Sub | And | Or | Xor | Shl | Shr | Sar | Mul
type unop = Not | Neg

type cond = Z | Nz | Lt | Le | Gt | Ge | B | Be | A | Ae
(** Branch conditions over the flags register; [B]/[Be]/[A]/[Ae] are the
    unsigned comparisons. *)

type src = Reg of Reg.t | Imm of int64

type mem = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int;
  disp : int;
}
(** x86-flavoured memory operand: [base + index*scale + disp]. *)

type op =
  | Mov of width * Reg.t * src
  | Lea of Reg.t * mem
  | Load of width * Reg.t * mem
  | Store of width * mem * src
  | Binop of binop * Reg.t * src
  | Unop of unop * Reg.t
  | Div of Reg.t * Reg.t * src
      (** [Div (dst, n, s)] computes [dst = n / s].  Faults when the divisor
          is zero; its latency depends on its operands, making division a
          transmitter (the gem5 channel AMuLeT* discovered). *)
  | Rem of Reg.t * Reg.t * src
  | Cmp of Reg.t * src
  | Test of Reg.t * src
  | Setcc of cond * Reg.t
  | Cmov of cond * Reg.t * src
  | Jcc of cond * int
  | Jmp of int
  | Jmpi of Reg.t
  | Call of int
  | Ret
  | Push of src
  | Pop of Reg.t
  | Nop
  | Halt

type t = { op : op; prot : bool }

val make : ?prot:bool -> op -> t

type role = Data | Addr | Cond_in | Target | Divide
(** The role a register source plays in an instruction.  [Addr], [Cond_in],
    [Target] and [Divide] are the sensitive roles assumed transmitted by the
    threat model (Section II-B1). *)

val mem_regs : mem -> Reg.t list
val src_regs : src -> Reg.t list

val reads : op -> (Reg.t * role) list
(** All register sources with their roles.  A [W8] destination also appears
    as a [Data] read because the write merges with the old value. *)

val read_regs : op -> Reg.t list

val writes : op -> Reg.t list
(** All register outputs, including the implicit [flags] output of
    arithmetic instructions and the [rsp] update of stack operations. *)

val is_transmitter : op -> bool
(** Loads/stores (address), conditional/indirect branches (condition or
    target), stack operations (address) and divisions (both inputs). *)

val is_sensitive : role -> bool
(** [Addr], [Cond_in], [Target] and [Divide]: the roles a transmitter
    transmits. *)

val sensitive_reads : op -> (Reg.t * role) list
(** The subset of {!reads} whose role is sensitive. *)

val is_load : op -> bool
val is_store : op -> bool
val is_branch : op -> bool

val width_bytes : width -> int

val string_of_binop : binop -> string
val string_of_unop : unop -> string
val string_of_cond : cond -> string
val string_of_width : width -> string
val pp_src : Format.formatter -> src -> unit
val pp_mem : Format.formatter -> mem -> unit
val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
