(* Architectural ProtSet tracking (Section IV-B).

   The ProtSet is the set of architectural state elements (registers and
   memory bytes) whose contents a defense promises to keep from leaking
   transiently.  ProtISA makes it software-programmable:

   - PROT-prefixed instructions add their output registers to the set;
   - unprefixed instructions remove their output registers, and any memory
     bytes they read, from the set;
   - stores label written bytes with the protection of their data operand;
   - sub-register (W8) writes leave the full register's protection
     unchanged when unprefixed and protect it when PROT-prefixed.

   Initially all memory is protected and all registers are unprotected
   (registers hold the public initial inputs; memory may hold secrets). *)

open Protean_isa

type t = {
  reg : bool array; (* per architectural register *)
  mem_unprot : Memory.t;
      (* one byte per memory byte: 1 = unprotected; unmapped bytes read 0,
         so all memory starts protected *)
}

let create () =
  let reg = Array.make Reg.count false in
  { reg; mem_unprot = Memory.create () }

let reg_protected t r = t.reg.(Reg.to_int r)
let set_reg t r v = t.reg.(Reg.to_int r) <- v

(* [size] (≤ 8) unprotected bytes, as one little-endian word. *)
let unprotected size =
  if size <= 0 then 0L
  else Int64.shift_right_logical 0x0101_0101_0101_0101L (64 - (8 * size))

let mem_protected t addr size =
  not (Int64.equal (Memory.read t.mem_unprot addr size) (unprotected size))

let set_mem t addr size ~protected =
  Memory.write t.mem_unprot addr size
    (if protected then 0L else unprotected size)

let src_protected t = function
  | Insn.Reg r -> reg_protected t r
  | Insn.Imm _ -> false

(* Is the write to [r] by [insn] a sub-register (merging) write? *)
let is_subreg_write (insn : Insn.t) r =
  match insn.op with
  | Insn.Mov (Insn.W8, d, _) | Insn.Load (Insn.W8, d, _) -> Reg.equal d r
  | _ -> false

(* Output registers: [written] lists exactly [Insn.writes insn.op]. *)
let rec set_outputs t (insn : Insn.t) = function
  | [] -> ()
  | (r, _) :: written ->
      if insn.prot then set_reg t r true
      else if not (is_subreg_write insn r) then set_reg t r false;
      set_outputs t insn written

(* Advance the ProtSet across one architecturally-executed instruction. *)
let step t (eff : Exec.effect_) =
  let insn = eff.e_insn in
  (* Memory bytes written by stores take the protection of the data
     operand; this happens before register updates so push/call use the
     pre-instruction register protections. *)
  (match (insn.op, eff.e_store) with
  | Insn.Store (_, _, s), Some (addr, size, _) ->
      set_mem t addr size ~protected:(src_protected t s)
  | Insn.Push s, Some (addr, size, _) ->
      set_mem t addr size ~protected:(src_protected t s)
  | Insn.Call _, Some (addr, size, _) ->
      (* The pushed return address is program-counter data: public. *)
      set_mem t addr size ~protected:false
  | _ -> ());
  (* Unprefixed instructions unprotect the memory bytes they read. *)
  (match eff.e_load with
  | Some (addr, size, _) when not insn.prot -> set_mem t addr size ~protected:false
  | _ -> ());
  set_outputs t insn eff.e_written
