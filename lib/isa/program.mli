(** Whole-program representation: code, function table with
    vulnerable-code class labels, and initialized data sections. *)

type klass = Arch | Cts | Ct | Unr
(** The four jointly-exhaustive Spectre-vulnerable code classes (Fig. 2):
    non-secret-accessing, static constant-time, constant-time and
    unrestricted.  They form the hierarchy ARCH ⊂ CTS ⊂ CT ⊂ UNR. *)

val string_of_klass : klass -> string
val klass_of_string : string -> klass

type func = { fname : string; entry : int; size : int; klass : klass }

type data_init = { addr : int64; bytes : string; secret : bool }
(** An initialized data region.  [secret] regions are the ones whose
    contents the security fuzzer varies between contract-equivalent
    executions. *)

type t = {
  code : Insn.t array;
  funcs : func list;
  data : data_init list;
  main : int;
  stack_base : int64;
}

val default_stack_base : int64

val make :
  ?funcs:func list ->
  ?data:data_init list ->
  ?main:int ->
  ?stack_base:int64 ->
  Insn.t array ->
  t

val length : t -> int
val insn : t -> int -> Insn.t
val in_bounds : t -> int -> bool

val func_at : t -> int -> func option

val find_func : t -> string -> func option
val with_code : t -> Insn.t array -> t

val secret_ranges : t -> (int64 * int64) list
(** [(addr, len)] of every secret data region. *)
