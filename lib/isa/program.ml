(* Whole-program representation: code, function table with vulnerable-code
   class labels (Section III-A), and initialized data sections with secrecy
   labels used by the security fuzzer and observer modes. *)

type klass = Arch | Cts | Ct | Unr

let string_of_klass = function
  | Arch -> "ARCH"
  | Cts -> "CTS"
  | Ct -> "CT"
  | Unr -> "UNR"

let klass_of_string = function
  | "ARCH" | "arch" -> Arch
  | "CTS" | "cts" -> Cts
  | "CT" | "ct" -> Ct
  | "UNR" | "unr" -> Unr
  | s -> invalid_arg ("Program.klass_of_string: " ^ s)

type func = {
  fname : string;
  entry : int; (* pc of first instruction *)
  size : int; (* number of instructions *)
  klass : klass;
}

type data_init = {
  addr : int64;
  bytes : string;
  secret : bool; (* true when the region holds secret input data *)
}

type t = {
  code : Insn.t array;
  funcs : func list;
  data : data_init list;
  main : int;
  stack_base : int64; (* initial rsp *)
}

let default_stack_base = 0x100000L

let make ?(funcs = []) ?(data = []) ?(main = 0)
    ?(stack_base = default_stack_base) code =
  { code; funcs; data; main; stack_base }

let length p = Array.length p.code
let insn p pc = p.code.(pc)
let in_bounds p pc = pc >= 0 && pc < Array.length p.code

(* The function containing [pc], if any. *)
let func_at p pc =
  List.find_opt (fun f -> pc >= f.entry && pc < f.entry + f.size) p.funcs

let find_func p name = List.find_opt (fun f -> String.equal f.fname name) p.funcs

(* Replace the code of one function, patching up the function table.  Used
   by ProtCC, whose passes may grow a function by inserting identity
   moves; [new_code] is the whole new code array and [shift_map] gives the
   new pc of each old pc so the other functions' entries stay valid. *)
let with_code p code = { p with code }

let secret_ranges p =
  List.filter_map
    (fun d ->
      if d.secret then Some (d.addr, Int64.of_int (String.length d.bytes))
      else None)
    p.data
