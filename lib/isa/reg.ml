(* Architectural registers of the Protean ISA.

   The ISA models an x86-64-flavoured register file: 16 general-purpose
   64-bit registers plus the flags register.  A hidden temporary register
   is reserved for micro-architectural sequencing (e.g. the loaded return
   address of [ret]); it is never visible to compiled code.

   [rsp] is the stack pointer, which ProtCC-UNR treats specially: it never
   holds secret program data (Section V-A4 of the paper). *)

type t = int

let count = 18

let rax = 0
let rcx = 1
let rdx = 2
let rbx = 3
let rsp = 4
let rbp = 5
let rsi = 6
let rdi = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15
let flags = 16
let tmp = 17

let is_gpr r = r >= 0 && r < 16

let of_int i =
  if i < 0 || i >= count then invalid_arg "Reg.of_int" else i

let to_int r = r

let all_gprs = List.init 16 (fun i -> i)
let all = List.init count (fun i -> i)

let names =
  [| "rax"; "rcx"; "rdx"; "rbx"; "rsp"; "rbp"; "rsi"; "rdi";
     "r8"; "r9"; "r10"; "r11"; "r12"; "r13"; "r14"; "r15";
     "flags"; "tmp" |]

let name r = names.(r)

let of_name s =
  let rec find i =
    if i >= count then invalid_arg ("Reg.of_name: " ^ s)
    else if String.equal names.(i) s then i
    else find (i + 1)
  in
  find 0

let pp fmt r = Format.pp_print_string fmt (name r)
let equal (a : t) (b : t) = a = b
