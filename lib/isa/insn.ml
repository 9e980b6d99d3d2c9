(* Instructions of the Protean ISA, including the PROT prefix (Section IV
   of the paper).

   Each instruction carries a [prot] bit modelling the PROT instruction
   prefix: a PROT-prefixed instruction adds its output registers to the
   architectural ProtSet; an unprefixed instruction removes its output
   registers and any memory bytes it reads from the ProtSet.

   The module also classifies instructions as transmitters and exposes
   their operand roles, which is what both the sequential contract
   executor and the hardware protection mechanisms consume. *)

type width = W8 | W32 | W64

type binop =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Sar
  | Mul

type unop = Not | Neg

type cond =
  | Z   (* equal / zero *)
  | Nz  (* not equal *)
  | Lt  (* signed less-than *)
  | Le
  | Gt
  | Ge
  | B   (* unsigned below *)
  | Be
  | A   (* unsigned above *)
  | Ae

type src = Reg of Reg.t | Imm of int64

type mem = {
  base : Reg.t option;
  index : Reg.t option;
  scale : int; (* 1, 2, 4 or 8 *)
  disp : int;
}

type op =
  | Mov of width * Reg.t * src
  | Lea of Reg.t * mem
  | Load of width * Reg.t * mem
  | Store of width * mem * src
  | Binop of binop * Reg.t * src
  | Unop of unop * Reg.t
  | Div of Reg.t * Reg.t * src (* dst = reg / src; conditionally faults *)
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

let make ?(prot = false) op = { op; prot }

(* ------------------------------------------------------------------ *)
(* Operand roles                                                      *)
(* ------------------------------------------------------------------ *)

(* The role a register source plays in an instruction.  Sensitive roles
   (address, condition, target, divide) are the ones the threat model
   (Section II-B1) assumes are transmitted when the instruction
   executes/resolves. *)
type role =
  | Data    (* ordinary data-flow input *)
  | Addr    (* address operand of a memory access *)
  | Cond_in (* flags input of a conditional branch / setcc / cmov *)
  | Target  (* target operand of an indirect jump *)
  | Divide  (* input operand of a division *)

let mem_regs m =
  let add acc = function Some r -> r :: acc | None -> acc in
  add (add [] m.index) m.base

let src_regs = function Reg r -> [ r ] | Imm _ -> []

(* Register reads with their roles, in a fixed order. *)
let reads op =
  let mem_reads m = List.map (fun r -> (r, Addr)) (mem_regs m) in
  let data s = List.map (fun r -> (r, Data)) (src_regs s) in
  match op with
  | Mov (w, dst, s) ->
      (* Sub-register writes merge with the previous value of [dst]. *)
      let merge = match w with W8 -> [ (dst, Data) ] | W32 | W64 -> [] in
      data s @ merge
  | Lea (_, m) -> List.map (fun r -> (r, Data)) (mem_regs m)
  | Load (w, d, m) ->
      let merge = match w with W8 -> [ (d, Data) ] | W32 | W64 -> [] in
      mem_reads m @ merge
  | Store (_, m, s) -> mem_reads m @ data s
  | Binop (_, dst, s) -> ((dst, Data) :: data s)
  | Unop (_, dst) -> [ (dst, Data) ]
  | Div (_, n, s) | Rem (_, n, s) -> ((n, Divide) :: List.map (fun r -> (r, Divide)) (src_regs s))
  | Cmp (r, s) -> ((r, Data) :: data s)
  | Test (r, s) -> ((r, Data) :: data s)
  | Setcc (_, _) -> [ (Reg.flags, Cond_in) ]
  | Cmov (_, dst, s) -> ((Reg.flags, Cond_in) :: (dst, Data) :: data s)
  | Jcc (_, _) -> [ (Reg.flags, Cond_in) ]
  | Jmp _ -> []
  | Jmpi r -> [ (r, Target) ]
  | Call _ -> [ (Reg.rsp, Addr) ]
  | Ret -> [ (Reg.rsp, Addr) ]
  | Push s -> ((Reg.rsp, Addr) :: data s)
  | Pop _ -> [ (Reg.rsp, Addr) ]
  | Nop | Halt -> []

let read_regs op = List.map fst (reads op)

(* Register outputs.  Arithmetic instructions implicitly write flags. *)
let writes op =
  match op with
  | Mov (_, dst, _) -> [ dst ]
  | Lea (dst, _) -> [ dst ]
  | Load (_, dst, _) -> [ dst ]
  | Store (_, _, _) -> []
  | Binop (_, dst, _) -> [ dst; Reg.flags ]
  | Unop (_, dst) -> [ dst; Reg.flags ]
  | Div (dst, _, _) | Rem (dst, _, _) -> [ dst ]
  | Cmp (_, _) | Test (_, _) -> [ Reg.flags ]
  | Setcc (_, dst) -> [ dst ]
  | Cmov (_, dst, _) -> [ dst ]
  | Jcc (_, _) | Jmp _ | Jmpi _ -> []
  | Call _ -> [ Reg.rsp ]
  | Ret -> [ Reg.rsp; Reg.tmp ]
  | Push _ -> [ Reg.rsp ]
  | Pop dst -> [ dst; Reg.rsp ]
  | Nop | Halt -> []

(* ------------------------------------------------------------------ *)
(* Transmitter classification (threat model, Section II-B1)           *)
(* ------------------------------------------------------------------ *)

(* Loads and stores transmit their address operands when they execute;
   conditional and indirect branches transmit their condition/target when
   they resolve; division micro-ops partially transmit both inputs (the
   new gem5 channel found by the AMuLeT-star fuzzer).
   [Call]/[Ret]/[Push]/[Pop] contain
   memory accesses and so transmit their (stack-pointer) address. *)
let is_transmitter op =
  match op with
  | Load _ | Store _ | Jcc _ | Jmpi _ | Call _ | Ret | Push _ | Pop _
  | Div _ | Rem _ ->
      true
  | Mov _ | Lea _ | Binop _ | Unop _ | Cmp _ | Test _ | Setcc _ | Cmov _
  | Jmp _ | Nop | Halt ->
      false

(* The roles a transmitter transmits (Section II-B1). *)
let is_sensitive = function
  | Addr | Cond_in | Target | Divide -> true
  | Data -> false

(* The sensitive register operands of a transmitter: the subset of its
   reads whose role is sensitive. *)
let sensitive_reads op =
  List.filter (fun (_, role) -> is_sensitive role) (reads op)

let is_load op =
  match op with Load _ | Pop _ | Ret -> true | _ -> false

let is_store op =
  match op with Store _ | Push _ | Call _ -> true | _ -> false

let is_branch op =
  match op with
  | Jcc _ | Jmp _ | Jmpi _ | Call _ | Ret -> true
  | _ -> false

let width_bytes = function W8 -> 1 | W32 -> 4 | W64 -> 8

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                    *)
(* ------------------------------------------------------------------ *)

let string_of_binop = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Mul -> "mul"

let string_of_unop = function Not -> "not" | Neg -> "neg"

let string_of_cond = function
  | Z -> "z"
  | Nz -> "nz"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | B -> "b"
  | Be -> "be"
  | A -> "a"
  | Ae -> "ae"

let string_of_width = function W8 -> "b" | W32 -> "l" | W64 -> "q"

let pp_src fmt = function
  | Reg r -> Reg.pp fmt r
  | Imm i -> Format.fprintf fmt "$%Ld" i

let pp_mem fmt m =
  let pp_opt fmt = function
    | Some r -> Reg.pp fmt r
    | None -> Format.pp_print_string fmt "_"
  in
  Format.fprintf fmt "[%a + %a*%d + %d]" pp_opt m.base pp_opt m.index m.scale
    m.disp

let pp_op fmt op =
  let f x = Format.fprintf fmt x in
  match op with
  | Mov (w, d, s) -> f "mov%s %a, %a" (string_of_width w) Reg.pp d pp_src s
  | Lea (d, m) -> f "lea %a, %a" Reg.pp d pp_mem m
  | Load (w, d, m) -> f "load%s %a, %a" (string_of_width w) Reg.pp d pp_mem m
  | Store (w, m, s) -> f "store%s %a, %a" (string_of_width w) pp_mem m pp_src s
  | Binop (o, d, s) -> f "%s %a, %a" (string_of_binop o) Reg.pp d pp_src s
  | Unop (o, d) -> f "%s %a" (string_of_unop o) Reg.pp d
  | Div (d, n, s) -> f "div %a, %a, %a" Reg.pp d Reg.pp n pp_src s
  | Rem (d, n, s) -> f "rem %a, %a, %a" Reg.pp d Reg.pp n pp_src s
  | Cmp (r, s) -> f "cmp %a, %a" Reg.pp r pp_src s
  | Test (r, s) -> f "test %a, %a" Reg.pp r pp_src s
  | Setcc (c, d) -> f "set%s %a" (string_of_cond c) Reg.pp d
  | Cmov (c, d, s) -> f "cmov%s %a, %a" (string_of_cond c) Reg.pp d pp_src s
  | Jcc (c, t) -> f "j%s %d" (string_of_cond c) t
  | Jmp t -> f "jmp %d" t
  | Jmpi r -> f "jmpi %a" Reg.pp r
  | Call t -> f "call %d" t
  | Ret -> f "ret"
  | Push s -> f "push %a" pp_src s
  | Pop d -> f "pop %a" Reg.pp d
  | Nop -> f "nop"
  | Halt -> f "halt"

let pp fmt { op; prot } =
  if prot then Format.fprintf fmt "PROT %a" pp_op op else pp_op fmt op

let to_string i = Format.asprintf "%a" pp i
