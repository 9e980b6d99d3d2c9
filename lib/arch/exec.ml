(* Sequential (architectural) execution of Protean ISA programs.

   This is the reference semantics: the out-of-order pipeline must produce
   exactly the same architectural results (a property test enforces it),
   and the SEQ execution mode of security contracts (Section II-C) is a
   run of this machine under an observer. *)

open Protean_isa

type state = {
  regs : int64 array;
  mem : Memory.t;
  mutable pc : int;
  mutable halted : bool;
  mutable steps : int;
}

(* Everything one instruction did, for observers and ProtSet tracking. *)
type effect_ = {
  e_pc : int;
  e_insn : Insn.t;
  e_next_pc : int;
  e_load : (int64 * int * int64) option; (* addr, size, value *)
  e_store : (int64 * int * int64) option;
  e_branch : (bool * int) option; (* taken, actual target *)
  e_div : (int64 * int64) option; (* dividend, divisor *)
  e_fault : bool;
  e_written : (Reg.t * int64) list;
}

(* Every field in one allocation: [step] builds exactly one record. *)
let make_effect ?load ?store ?branch ?div ?(fault = false) pc insn next
    written =
  {
    e_pc = pc;
    e_insn = insn;
    e_next_pc = next;
    e_load = load;
    e_store = store;
    e_branch = branch;
    e_div = div;
    e_fault = fault;
    e_written = written;
  }

let no_effect pc insn next = make_effect pc insn next []

let init (p : Program.t) =
  let mem = Memory.create () in
  List.iter (fun (d : Program.data_init) -> Memory.write_string mem d.addr d.bytes) p.data;
  let regs = Array.make Reg.count 0L in
  regs.(Reg.to_int Reg.rsp) <- p.stack_base;
  { regs; mem; pc = p.main; halted = false; steps = 0 }

(* Apply extra memory overlays (e.g. the fuzzer's secret-region inputs). *)
let overlay state overlays =
  List.iter (fun (addr, bytes) -> Memory.write_string state.mem addr bytes) overlays

let reg state r = state.regs.(Reg.to_int r)
let set_reg state r v = state.regs.(Reg.to_int r) <- v

let src_value state = function
  | Insn.Reg r -> reg state r
  | Insn.Imm v -> v

let ea state m = Sem.effective_address (reg state) m

let write_reg state w r v =
  let old = reg state r in
  let v' = Sem.apply_width w ~old v in
  set_reg state r v';
  (r, v')

(* Execute the instruction at [state.pc].  Returns its effect; advances
   the state.  Running off the end of the code array halts. *)
let step (p : Program.t) state =
  if state.halted then no_effect state.pc (Insn.make Insn.Halt) state.pc
  else if not (Program.in_bounds p state.pc) then begin
    state.halted <- true;
    no_effect state.pc (Insn.make Insn.Halt) state.pc
  end
  else begin
    let pc = state.pc in
    let insn = Program.insn p pc in
    state.steps <- state.steps + 1;
    let next = pc + 1 in
    let eff =
      match insn.op with
      | Insn.Nop -> make_effect pc insn next []
      | Insn.Halt ->
          state.halted <- true;
          make_effect pc insn pc []
      | Insn.Mov (w, d, s) ->
          let wr = write_reg state w d (src_value state s) in
          make_effect pc insn next [ wr ]
      | Insn.Lea (d, m) ->
          let wr = write_reg state Insn.W64 d (ea state m) in
          make_effect pc insn next [ wr ]
      | Insn.Load (w, d, m) ->
          let addr = ea state m in
          let size = Insn.width_bytes w in
          let v = Memory.read state.mem addr size in
          let wr = write_reg state w d v in
          make_effect ~load:(addr, size, v) pc insn next [ wr ]
      | Insn.Store (w, m, s) ->
          let addr = ea state m in
          let size = Insn.width_bytes w in
          let v = Sem.truncate_width w (src_value state s) in
          Memory.write state.mem addr size v;
          make_effect ~store:(addr, size, v) pc insn next []
      | Insn.Binop (o, d, s) ->
          let r, fl = Sem.eval_binop o (reg state d) (src_value state s) in
          let wr = write_reg state Insn.W64 d r in
          let wf = write_reg state Insn.W64 Reg.flags fl in
          make_effect pc insn next [ wr; wf ]
      | Insn.Unop (o, d) ->
          let r, fl = Sem.eval_unop o (reg state d) in
          let wr = write_reg state Insn.W64 d r in
          let wf = write_reg state Insn.W64 Reg.flags fl in
          make_effect pc insn next [ wr; wf ]
      | Insn.Div (d, n, s) ->
          let nv = reg state n in
          let dv = src_value state s in
          if Int64.equal dv 0L then
            (* Suppressed architectural fault: the quotient reads as
               all-ones and execution continues, but the event is recorded
               so the pipeline can model the conditional machine clear. *)
            let wr = write_reg state Insn.W64 d Int64.minus_one in
            make_effect ~div:(nv, dv) ~fault:true pc insn next [ wr ]
          else
            let wr = write_reg state Insn.W64 d (Sem.eval_div nv dv) in
            make_effect ~div:(nv, dv) pc insn next [ wr ]
      | Insn.Rem (d, n, s) ->
          let nv = reg state n in
          let dv = src_value state s in
          if Int64.equal dv 0L then
            let wr = write_reg state Insn.W64 d Int64.minus_one in
            make_effect ~div:(nv, dv) ~fault:true pc insn next [ wr ]
          else
            let wr = write_reg state Insn.W64 d (Sem.eval_rem nv dv) in
            make_effect ~div:(nv, dv) pc insn next [ wr ]
      | Insn.Cmp (a, s) ->
          let fl = Sem.eval_cmp (reg state a) (src_value state s) in
          let wf = write_reg state Insn.W64 Reg.flags fl in
          make_effect pc insn next [ wf ]
      | Insn.Test (a, s) ->
          let fl = Sem.eval_test (reg state a) (src_value state s) in
          let wf = write_reg state Insn.W64 Reg.flags fl in
          make_effect pc insn next [ wf ]
      | Insn.Setcc (c, d) ->
          let v = if Sem.eval_cond c (reg state Reg.flags) then 1L else 0L in
          let wr = write_reg state Insn.W64 d v in
          make_effect pc insn next [ wr ]
      | Insn.Cmov (c, d, s) ->
          let v =
            if Sem.eval_cond c (reg state Reg.flags) then src_value state s
            else reg state d
          in
          let wr = write_reg state Insn.W64 d v in
          make_effect pc insn next [ wr ]
      | Insn.Jcc (c, t) ->
          let taken = Sem.eval_cond c (reg state Reg.flags) in
          let target = if taken then t else next in
          make_effect ~branch:(taken, target) pc insn target []
      | Insn.Jmp t -> make_effect ~branch:(true, t) pc insn t []
      | Insn.Jmpi rt ->
          let target = Int64.to_int (reg state rt) in
          make_effect ~branch:(true, target) pc insn target []
      | Insn.Call t ->
          let sp = Int64.sub (reg state Reg.rsp) 8L in
          Memory.write state.mem sp 8 (Int64.of_int next);
          let wr = write_reg state Insn.W64 Reg.rsp sp in
          make_effect
            ~store:(sp, 8, Int64.of_int next)
            ~branch:(true, t) pc insn t [ wr ]
      | Insn.Ret ->
          let sp = reg state Reg.rsp in
          let v = Memory.read state.mem sp 8 in
          let target = Int64.to_int v in
          let wr = write_reg state Insn.W64 Reg.rsp (Int64.add sp 8L) in
          let wt = write_reg state Insn.W64 Reg.tmp v in
          make_effect ~load:(sp, 8, v) ~branch:(true, target) pc insn target
            [ wr; wt ]
      | Insn.Push s ->
          let sp = Int64.sub (reg state Reg.rsp) 8L in
          let v = src_value state s in
          Memory.write state.mem sp 8 v;
          let wr = write_reg state Insn.W64 Reg.rsp sp in
          make_effect ~store:(sp, 8, v) pc insn next [ wr ]
      | Insn.Pop d ->
          let sp = reg state Reg.rsp in
          let v = Memory.read state.mem sp 8 in
          let wr = write_reg state Insn.W64 d v in
          let ws = write_reg state Insn.W64 Reg.rsp (Int64.add sp 8L) in
          make_effect ~load:(sp, 8, v) pc insn next [ wr; ws ]
    in
    state.pc <- eff.e_next_pc;
    eff
  end

(* Step two states over the same program in lockstep, for relational
   (two-trace) analyses such as certificate refutation: the pair
   advances while the pcs agree and neither machine has halted.
   [before pc] runs ahead of each paired step, [after pc] behind it;
   either may stop the replay. *)
let lockstep ?(fuel = 50_000) p s1 s2 ~before ~after =
  let steps = ref 0 in
  let continue = ref true in
  while
    !continue && (not s1.halted) && (not s2.halted) && s1.pc = s2.pc
    && !steps < fuel
  do
    incr steps;
    let pc = s1.pc in
    match before pc with
    | `Stop -> continue := false
    | `Continue -> (
        ignore (step p s1);
        ignore (step p s2);
        match after pc with
        | `Stop -> continue := false
        | `Continue -> ())
  done

(* Run until halt or [fuel] instructions, applying [f] to each effect. *)
let run ?(fuel = 1_000_000) p state ~f =
  let rec loop n =
    if n <= 0 || state.halted then ()
    else begin
      let eff = step p state in
      f eff;
      loop (n - 1)
    end
  in
  loop fuel

let run_to_halt ?fuel p state = run ?fuel p state ~f:(fun _ -> ())
