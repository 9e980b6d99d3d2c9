(* Result of instrumenting one function: the new PROT bit of every
   instruction and the identity moves to insert before instructions
   (ProtCC's mechanism for architecturally unprotecting a register,
   Section IV-B3). *)

open Protean_isa

type t = {
  lo : int;
  hi : int;
  prot : bool array; (* indexed by pc - lo: new PROT bit *)
  unprotect_before : Regset.t array; (* registers to unprotect before pc *)
}

let make ~lo ~hi =
  {
    lo;
    hi;
    prot = Array.make (hi - lo) false;
    unprotect_before = Array.make (hi - lo) Regset.empty;
  }

(* Identity move sequence unprotecting every register in [set]. *)
let id_moves set =
  List.map
    (fun r -> Insn.make (Insn.Mov (Insn.W64, r, Insn.Reg r)))
    (Regset.to_list set)

(* Registers eligible for unprotection via identity moves: general-purpose
   registers only (the flags register and the hidden temporary cannot be
   the destination of a register move). *)
let movable = Regset.of_list Reg.all_gprs
