(* A small assembler DSL used to write workloads and tests directly against
   the Protean ISA.  It supports forward label references, per-function
   vulnerable-code class labels, and secret/public data sections. *)

type fixup = { at : int; label : string }

type open_func = { ofname : string; oentry : int; oklass : Program.klass }

type ctx = {
  mutable code : Insn.t list; (* reversed *)
  mutable n : int;
  labels : (string, int) Hashtbl.t;
  mutable fixups : fixup list;
  mutable funcs : Program.func list;
  mutable current : open_func option;
  mutable data : Program.data_init list;
  mutable main : int option;
  mutable stack_base : int64;
}

let create () =
  {
    code = [];
    n = 0;
    labels = Hashtbl.create 16;
    fixups = [];
    funcs = [];
    current = None;
    data = [];
    main = None;
    stack_base = Program.default_stack_base;
  }

let here ctx = ctx.n

let emit ctx insn =
  ctx.code <- insn :: ctx.code;
  ctx.n <- ctx.n + 1

let label ctx name =
  if Hashtbl.mem ctx.labels name then
    invalid_arg ("Asm.label: duplicate label " ^ name);
  Hashtbl.replace ctx.labels name ctx.n

(* ------------------------------------------------------------------ *)
(* Functions, data and entry point                                    *)
(* ------------------------------------------------------------------ *)

let close_current ctx =
  match ctx.current with
  | None -> ()
  | Some f ->
      ctx.funcs <-
        {
          Program.fname = f.ofname;
          entry = f.oentry;
          size = ctx.n - f.oentry;
          klass = f.oklass;
        }
        :: ctx.funcs;
      ctx.current <- None

let func ctx ?(klass = Program.Unr) name =
  close_current ctx;
  label ctx name;
  ctx.current <- Some { ofname = name; oentry = ctx.n; oklass = klass }

let set_main ctx = ctx.main <- Some ctx.n

let data ctx ~addr ?(secret = false) bytes =
  ctx.data <- { Program.addr; bytes; secret } :: ctx.data

(* Reserve [len] zero bytes at [addr]. *)
let bss ctx ~addr ?(secret = false) len =
  data ctx ~addr ~secret (String.make len '\000')

(* ------------------------------------------------------------------ *)
(* Operand helpers                                                    *)
(* ------------------------------------------------------------------ *)

let r reg = Insn.Reg reg
let i n = Insn.Imm (Int64.of_int n)
let i64 n = Insn.Imm n

let mem ?base ?index ?(scale = 1) ?(disp = 0) () =
  { Insn.base; index; scale; disp }

let mb base = mem ~base ()
let mbd base disp = mem ~base ~disp ()
let mbi base index = mem ~base ~index ()
let mbis base index scale = mem ~base ~index ~scale ()

(* ------------------------------------------------------------------ *)
(* Instruction emitters                                               *)
(* ------------------------------------------------------------------ *)

let op ctx ?prot o = emit ctx (Insn.make ?prot o)

let mov ctx ?prot ?(w = Insn.W64) dst src = op ctx ?prot (Insn.Mov (w, dst, src))
let lea ctx ?prot dst m = op ctx ?prot (Insn.Lea (dst, m))
let load ctx ?prot ?(w = Insn.W64) dst m = op ctx ?prot (Insn.Load (w, dst, m))
let store ctx ?prot ?(w = Insn.W64) m src = op ctx ?prot (Insn.Store (w, m, src))

let binop ctx ?prot o dst src = op ctx ?prot (Insn.Binop (o, dst, src))
let add ctx ?prot dst src = binop ctx ?prot Insn.Add dst src
let sub ctx ?prot dst src = binop ctx ?prot Insn.Sub dst src
let and_ ctx ?prot dst src = binop ctx ?prot Insn.And dst src
let or_ ctx ?prot dst src = binop ctx ?prot Insn.Or dst src
let xor ctx ?prot dst src = binop ctx ?prot Insn.Xor dst src
let shl ctx ?prot dst src = binop ctx ?prot Insn.Shl dst src
let shr ctx ?prot dst src = binop ctx ?prot Insn.Shr dst src
let sar ctx ?prot dst src = binop ctx ?prot Insn.Sar dst src
let mul ctx ?prot dst src = binop ctx ?prot Insn.Mul dst src

let not_ ctx ?prot dst = op ctx ?prot (Insn.Unop (Insn.Not, dst))
let neg ctx ?prot dst = op ctx ?prot (Insn.Unop (Insn.Neg, dst))

let div ctx ?prot dst n src = op ctx ?prot (Insn.Div (dst, n, src))
let rem ctx ?prot dst n src = op ctx ?prot (Insn.Rem (dst, n, src))

let cmp ctx ?prot a b = op ctx ?prot (Insn.Cmp (a, b))
let test ctx ?prot a b = op ctx ?prot (Insn.Test (a, b))
let setcc ctx ?prot c dst = op ctx ?prot (Insn.Setcc (c, dst))
let cmov ctx ?prot c dst src = op ctx ?prot (Insn.Cmov (c, dst, src))

let push ctx ?prot src = op ctx ?prot (Insn.Push src)
let pop ctx ?prot dst = op ctx ?prot (Insn.Pop dst)
let nop ctx = op ctx Insn.Nop
let halt ctx = op ctx Insn.Halt
let jmpi ctx ?prot reg = op ctx ?prot (Insn.Jmpi reg)
let ret ctx = op ctx Insn.Ret

(* Control flow with label targets: emit a placeholder target and record a
   fixup resolved in [finish]. *)
let fix ctx target = ctx.fixups <- { at = ctx.n; label = target } :: ctx.fixups

let jcc ctx ?prot c target =
  fix ctx target;
  op ctx ?prot (Insn.Jcc (c, -1))

let jz ctx ?prot t = jcc ctx ?prot Insn.Z t
let jnz ctx ?prot t = jcc ctx ?prot Insn.Nz t
let jlt ctx ?prot t = jcc ctx ?prot Insn.Lt t
let jle ctx ?prot t = jcc ctx ?prot Insn.Le t
let jgt ctx ?prot t = jcc ctx ?prot Insn.Gt t
let jge ctx ?prot t = jcc ctx ?prot Insn.Ge t

let jmp ctx target =
  fix ctx target;
  op ctx (Insn.Jmp (-1))

let call ctx target =
  fix ctx target;
  op ctx (Insn.Call (-1))

(* Mark the end of the benchmark's warmup phase: the cycle at which this
   store commits starts the measured region (the pipeline recognizes the
   magic address).  Only the first marker counts. *)
let mark_measurement ctx = store ctx (mem ~disp:0x7770 ()) (Insn.Imm 1L)

(* ------------------------------------------------------------------ *)
(* Finalization                                                       *)
(* ------------------------------------------------------------------ *)

let finish ctx =
  close_current ctx;
  let code = Array.of_list (List.rev ctx.code) in
  List.iter
    (fun { at; label } ->
      let target =
        match Hashtbl.find_opt ctx.labels label with
        | Some t -> t
        | None -> invalid_arg ("Asm.finish: undefined label " ^ label)
      in
      let insn = code.(at) in
      let op' =
        match insn.Insn.op with
        | Insn.Jcc (c, _) -> Insn.Jcc (c, target)
        | Insn.Jmp _ -> Insn.Jmp target
        | Insn.Call _ -> Insn.Call target
        | _ -> assert false
      in
      code.(at) <- { insn with Insn.op = op' })
    ctx.fixups;
  let main = match ctx.main with Some m -> m | None -> 0 in
  Program.make ~funcs:(List.rev ctx.funcs) ~data:(List.rev ctx.data) ~main
    ~stack_base:ctx.stack_base code
