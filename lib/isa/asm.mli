(** Assembler DSL for writing programs against the Protean ISA.

    Supports forward label references, function boundaries with
    vulnerable-code class labels (consumed by ProtCC), secret/public data
    sections (consumed by the security fuzzer), and the measurement
    marker used by the benchmark methodology. *)

type ctx

val create : unit -> ctx

val here : ctx -> int
(** Current instruction index (the pc the next emitted instruction gets). *)

val emit : ctx -> Insn.t -> unit
val label : ctx -> string -> unit
(** Define a label at the current position.  Raises [Invalid_argument] on
    duplicates. *)

(** {1 Functions, data, entry point} *)

val func : ctx -> ?klass:Program.klass -> string -> unit
(** Open a new function (closing any previous one) with the given
    vulnerable-code class; also defines a label with the function name so
    it can be [call]ed. *)

val set_main : ctx -> unit
(** Mark the current position as the program entry point. *)

val data : ctx -> addr:int64 -> ?secret:bool -> string -> unit
val bss : ctx -> addr:int64 -> ?secret:bool -> int -> unit

(** {1 Operand helpers} *)

val r : Reg.t -> Insn.src
val i : int -> Insn.src
val i64 : int64 -> Insn.src

val mem :
  ?base:Reg.t -> ?index:Reg.t -> ?scale:int -> ?disp:int -> unit -> Insn.mem

val mb : Reg.t -> Insn.mem
(** [mb base] = [[base]]. *)

val mbd : Reg.t -> int -> Insn.mem
(** [mbd base disp] = [[base + disp]]. *)

val mbi : Reg.t -> Reg.t -> Insn.mem
(** [mbi base index] = [[base + index]]. *)

val mbis : Reg.t -> Reg.t -> int -> Insn.mem
(** [mbis base index scale] = [[base + index*scale]]. *)

(** {1 Instruction emitters}

    Every emitter takes [?prot] to set the ProtISA [PROT] prefix. *)

val op : ctx -> ?prot:bool -> Insn.op -> unit
val mov : ctx -> ?prot:bool -> ?w:Insn.width -> Reg.t -> Insn.src -> unit
val lea : ctx -> ?prot:bool -> Reg.t -> Insn.mem -> unit
val load : ctx -> ?prot:bool -> ?w:Insn.width -> Reg.t -> Insn.mem -> unit
val store : ctx -> ?prot:bool -> ?w:Insn.width -> Insn.mem -> Insn.src -> unit
val binop : ctx -> ?prot:bool -> Insn.binop -> Reg.t -> Insn.src -> unit
val add : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val sub : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val and_ : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val or_ : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val xor : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val shl : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val shr : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val sar : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val mul : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val not_ : ctx -> ?prot:bool -> Reg.t -> unit
val neg : ctx -> ?prot:bool -> Reg.t -> unit

val div : ctx -> ?prot:bool -> Reg.t -> Reg.t -> Insn.src -> unit
(** [div c dst n s] emits [dst = n / s] (faults when [s] is zero). *)

val rem : ctx -> ?prot:bool -> Reg.t -> Reg.t -> Insn.src -> unit
val cmp : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val test : ctx -> ?prot:bool -> Reg.t -> Insn.src -> unit
val setcc : ctx -> ?prot:bool -> Insn.cond -> Reg.t -> unit
val cmov : ctx -> ?prot:bool -> Insn.cond -> Reg.t -> Insn.src -> unit
val push : ctx -> ?prot:bool -> Insn.src -> unit
val pop : ctx -> ?prot:bool -> Reg.t -> unit
val nop : ctx -> unit
val halt : ctx -> unit
val jmpi : ctx -> ?prot:bool -> Reg.t -> unit
val ret : ctx -> unit

(** {1 Control flow to labels} *)

val jcc : ctx -> ?prot:bool -> Insn.cond -> string -> unit
val jz : ctx -> ?prot:bool -> string -> unit
val jnz : ctx -> ?prot:bool -> string -> unit
val jlt : ctx -> ?prot:bool -> string -> unit
val jle : ctx -> ?prot:bool -> string -> unit
val jgt : ctx -> ?prot:bool -> string -> unit
val jge : ctx -> ?prot:bool -> string -> unit
val jmp : ctx -> string -> unit
val call : ctx -> string -> unit

val mark_measurement : ctx -> unit
(** Mark the end of the warmup phase: the cycle at which this (magic)
    store commits starts the measured region; only the first marker
    counts.  Mirrors the paper's simpoint-warmup methodology. *)

val finish : ctx -> Program.t
(** Resolve all label fixups and produce the program.  Raises
    [Invalid_argument] on undefined labels. *)
