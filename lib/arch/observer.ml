(* Observer modes for hardware-software security contracts (Section II-C).

   An observer mode defines what architectural state a contract exposes at
   each execution step of the SEQ execution mode:

   - ARCH   exposes all accessed data (the assumption made by
            non-secret-accessing code);
   - CT     exposes the sensitive operands of transmitters: the program
            counter, individual address registers (the AMuLeT* refinement),
            effective addresses, branch conditions/targets, and the partial
            function of division operands that the divider leaks;
   - CTS    extends CT with the values written to publicly-typed registers
            (per a static secrecy typing);
   - UNPROT extends CT with the values held in ProtISA-unprotected
            registers, for testing arbitrary ProtISA binaries. *)

open Protean_isa

type atom =
  | O_pc of int
  | O_addr_reg of Reg.t * int64
  | O_addr of int64
  | O_branch of bool * int
  | O_div of int * int * bool (* bit-length of dividend/divisor, divisor=0 *)
  | O_data of int64
  | O_reg of Reg.t * int64

let atom_equal (a : atom) (b : atom) = a = b

(* A static secrecy typing: for each pc, the output registers that are
   publicly typed at that definition (produced by ProtCC-CTS). *)
type typing = (int, Reg.t list) Hashtbl.t

type mode =
  | Arch_mode
  | Ct_mode
  | Cts_mode of typing
  | Unprot_mode

let mode_name = function
  | Arch_mode -> "ARCH"
  | Ct_mode -> "CT"
  | Cts_mode _ -> "CTS"
  | Unprot_mode -> "UNPROT"

(* [O_addr_reg] atoms for the [Addr] and [Target] registers of
   [Insn.reads op], in its order, consed onto [acc]: matching [op]
   directly builds no role list per step. *)
let addr_reg regv r acc = O_addr_reg (r, regv r) :: acc
let addr_reg_opt regv r acc =
  match r with Some r -> addr_reg regv r acc | None -> acc

let addr_regs regv (op : Insn.op) acc =
  match op with
  | Insn.Load (_, _, m) | Insn.Store (_, m, _) ->
      addr_reg_opt regv m.Insn.index (addr_reg_opt regv m.Insn.base acc)
  | Insn.Call _ | Insn.Ret | Insn.Push _ | Insn.Pop _ ->
      addr_reg regv Reg.rsp acc
  | Insn.Jmpi r -> addr_reg regv r acc
  | _ -> acc

(* Observations every mode shares: control flow and transmitter operands.
   [regv] reads a register value *before* the instruction executed. *)
let ct_atoms ~regv (eff : Exec.effect_) =
  let acc = ref (addr_regs regv eff.e_insn.op [ O_pc eff.e_pc ]) in
  let push a = acc := a :: !acc in
  (match eff.e_load with Some (a, _, _) -> push (O_addr a) | None -> ());
  (match eff.e_store with Some (a, _, _) -> push (O_addr a) | None -> ());
  (match eff.e_branch with
  | Some (taken, target) -> push (O_branch (taken, target))
  | None -> ());
  (match eff.e_div with
  | Some (n, d) ->
      push (O_div (Sem.bit_length n, Sem.bit_length d, Int64.equal d 0L))
  | None -> ());
  List.rev !acc

(* Observe one architectural step.  [protset] must be the ProtSet state
   *after* the step for [Unprot_mode] (unprotected outputs are exposed). *)
let observe mode ~regv ~protset (eff : Exec.effect_) =
  let base = ct_atoms ~regv eff in
  match mode with
  | Ct_mode -> base
  | Arch_mode ->
      let data =
        List.filter_map
          (fun x -> x)
          [
            Option.map (fun (_, _, v) -> O_data v) eff.e_load;
            Option.map (fun (_, _, v) -> O_data v) eff.e_store;
          ]
      in
      base @ data
  | Cts_mode typing ->
      let public =
        match Hashtbl.find_opt typing eff.e_pc with
        | None -> []
        | Some regs ->
            List.filter_map
              (fun (r, v) ->
                if List.exists (Reg.equal r) regs then Some (O_reg (r, v))
                else None)
              eff.e_written
      in
      base @ public
  | Unprot_mode ->
      let unprot =
        List.filter_map
          (fun (r, v) ->
            if Protset.reg_protected protset r then None else Some (O_reg (r, v)))
          eff.e_written
      in
      base @ unprot
