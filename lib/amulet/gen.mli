(** Random test-program generator — the llvm-stress-based generator of
    AMuLeT* (Section VII-B1a).

    Programs operate on a public array (identical across a test pair), a
    secret array (varied by the fuzzer) and a probe array large enough to
    act as a cache side channel.  Generation is class-aware: the
    generator tracks secret-holding registers and confines them per the
    class under test.  Spectre gadgets with slow (cold-load) guards open
    real transient windows; an architectural re-quarantine keeps test
    pairs contract-equivalent. *)

val public_base : int
val public_size : int
val secret_base : int
val secret_size : int
val probe_base : int
val probe_size : int
val cold_base : int
val cold_size : int

type klass_gen =
  | G_arch  (** never architecturally touches the secret region *)
  | G_ct  (** holds secrets, never passes them to sensitive operands *)
  | G_unr  (** unconstrained, including secret-dependent branches *)
  | G_gadget
      (** every slot emits the v1 bounds-check-bypass gadget; used by the
          attribution smoke tests (deterministic leaks under [unsafe]) *)

type spec = { seed : int; klass : klass_gen; blocks : int; block_len : int }

val default_spec : spec

val klass_of_gen : klass_gen -> Protean_isa.Program.klass
(** The program class a generator emits (a gadget never runs
    architecturally, so it is Arch-class). *)

val generate : spec -> Protean_isa.Program.t
(** Deterministic in [spec.seed]; always terminates (forward-only
    branches). *)

val random_bytes : Random.State.t -> int -> string

val random_public : Random.State.t -> int64 * string
(** A public-region overlay, shared across a test pair. *)

val random_secret : Random.State.t -> int64 * string
(** A secret-region overlay, varied between the two runs of a pair. *)
