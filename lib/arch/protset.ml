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
  mem_unprot : (int64, Bytes.t) Hashtbl.t;
      (* pages of 0/1 bytes: 1 = unprotected.  Absent page = protected. *)
}

let create () =
  let reg = Array.make Reg.count false in
  { reg; mem_unprot = Hashtbl.create 64 }

let reg_protected t r = t.reg.(Reg.to_int r)
let set_reg t r v = t.reg.(Reg.to_int r) <- v

let page_of addr = Int64.shift_right_logical addr 12
let offset_of addr = Int64.to_int (Int64.logand addr 0xfffL)

let mem_byte_protected t addr =
  match Hashtbl.find_opt t.mem_unprot (page_of addr) with
  | None -> true
  | Some p -> Bytes.get p (offset_of addr) = '\000'

let set_mem_byte t addr ~protected =
  let page =
    match Hashtbl.find_opt t.mem_unprot (page_of addr) with
    | Some p -> p
    | None ->
        let p = Bytes.make 4096 '\000' in
        Hashtbl.replace t.mem_unprot (page_of addr) p;
        p
  in
  Bytes.set page (offset_of addr) (if protected then '\000' else '\001')

let mem_protected t addr size =
  let rec loop i =
    if i >= size then false
    else
      mem_byte_protected t (Int64.add addr (Int64.of_int i)) || loop (i + 1)
  in
  loop 0

let set_mem t addr size ~protected =
  for i = 0 to size - 1 do
    set_mem_byte t (Int64.add addr (Int64.of_int i)) ~protected
  done

let src_protected t = function
  | Insn.Reg r -> reg_protected t r
  | Insn.Imm _ -> false

(* Is the write to [r] by [insn] a sub-register (merging) write? *)
let is_subreg_write (insn : Insn.t) r =
  match insn.op with
  | Insn.Mov (Insn.W8, d, _) | Insn.Load (Insn.W8, d, _) -> Reg.equal d r
  | _ -> false

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
  (* Output registers. *)
  List.iter
    (fun r ->
      if insn.prot then set_reg t r true
      else if not (is_subreg_write insn r) then set_reg t r false)
    (Insn.writes insn.op)
