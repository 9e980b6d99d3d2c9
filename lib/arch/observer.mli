(** Observer modes for hardware-software security contracts
    (Section II-C).

    An observer mode defines what architectural state a contract exposes
    at each step of the SEQ execution mode:

    - [Arch_mode] exposes all accessed data (non-secret-accessing code);
    - [Ct_mode] exposes transmitter-sensitive operands: the pc, individual
      address registers (the AMuLeT* refinement), effective addresses,
      branch conditions/targets, and the partial function of division
      operands the divider leaks;
    - [Cts_mode] extends CT with values written to publicly-typed
      registers (per a static secrecy typing);
    - [Unprot_mode] extends CT with values held in ProtISA-unprotected
      registers, for testing arbitrary ProtISA binaries. *)

open Protean_isa

type atom =
  | O_pc of int
  | O_addr_reg of Reg.t * int64
  | O_addr of int64
  | O_branch of bool * int
  | O_div of int * int * bool
      (** bit-length of dividend/divisor, divisor-is-zero *)
  | O_data of int64
  | O_reg of Reg.t * int64

val atom_equal : atom -> atom -> bool

type typing = (int, Reg.t list) Hashtbl.t
(** Static secrecy typing: per pc, the output registers publicly typed at
    that definition (produced by ProtCC-CTS). *)

type mode = Arch_mode | Ct_mode | Cts_mode of typing | Unprot_mode

val mode_name : mode -> string

val ct_atoms : regv:(Reg.t -> int64) -> Exec.effect_ -> atom list
(** The observations every mode shares (control flow and transmitter
    operands); [regv] reads a register value {e before} the step. *)

val observe :
  mode -> regv:(Reg.t -> int64) -> protset:Protset.t -> Exec.effect_ -> atom list
(** Observe one architectural step; [protset] must reflect the state
    {e after} the step for [Unprot_mode]. *)
