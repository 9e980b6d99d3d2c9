(* Shared test fixtures: small hand-written programs exercising each
   pipeline feature, equivalence checking between the sequential
   reference machine and the out-of-order core, and in-process fake
   shard workers for the supervisor. *)

open Protean_isa
module Exec = Protean_arch.Exec
module Memory = Protean_arch.Memory

let r = Asm.r
let i = Asm.i

(* Sum of 1..n via a loop: rax = n*(n+1)/2. *)
let sum_loop n =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (i 0);
  Asm.mov c Reg.rcx (i 1);
  Asm.label c "loop";
  Asm.add c Reg.rax (r Reg.rcx);
  Asm.add c Reg.rcx (i 1);
  Asm.cmp c Reg.rcx (i n);
  Asm.jle c "loop";
  Asm.halt c;
  Asm.finish c

(* Store an array then sum it back: exercises stores, loads, forwarding
   and cache behaviour. *)
let store_load_sum n =
  let base = 0x2000 in
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rdi (i base);
  Asm.mov c Reg.rcx (i 0);
  Asm.label c "fill";
  Asm.mov c Reg.rax (r Reg.rcx);
  Asm.mul c Reg.rax (i 3);
  Asm.store c (Asm.mbis Reg.rdi Reg.rcx 8) (r Reg.rax);
  Asm.add c Reg.rcx (i 1);
  Asm.cmp c Reg.rcx (i n);
  Asm.jlt c "fill";
  Asm.mov c Reg.rax (i 0);
  Asm.mov c Reg.rcx (i 0);
  Asm.label c "sum";
  Asm.load c Reg.rdx (Asm.mbis Reg.rdi Reg.rcx 8);
  Asm.add c Reg.rax (r Reg.rdx);
  Asm.add c Reg.rcx (i 1);
  Asm.cmp c Reg.rcx (i n);
  Asm.jlt c "sum";
  Asm.halt c;
  Asm.finish c

(* Call/ret: rax = square(7) + square(9). *)
let call_ret () =
  let c = Asm.create () in
  Asm.set_main c;
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rdi (i 7);
  Asm.call c "square";
  Asm.mov c Reg.rbx (r Reg.rax);
  Asm.mov c Reg.rdi (i 9);
  Asm.call c "square";
  Asm.add c Reg.rax (r Reg.rbx);
  Asm.halt c;
  Asm.func c ~klass:Program.Arch "square";
  Asm.mov c Reg.rax (r Reg.rdi);
  Asm.mul c Reg.rax (r Reg.rdi);
  Asm.ret c;
  Asm.finish c

(* Division, including a suppressed divide-by-zero. *)
let division () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (i 1000);
  Asm.mov c Reg.rbx (i 7);
  Asm.div c Reg.rcx Reg.rax (r Reg.rbx);
  Asm.rem c Reg.rdx Reg.rax (r Reg.rbx);
  Asm.mov c Reg.rsi (i 0);
  Asm.div c Reg.rdi Reg.rax (r Reg.rsi) (* faults: rdi = -1 *);
  Asm.add c Reg.rcx (r Reg.rdx);
  Asm.halt c;
  Asm.finish c

(* Data-dependent branches over initialized data. *)
let branchy () =
  let base = 0x3000 in
  let c = Asm.create () in
  Asm.data c ~addr:(Int64.of_int base)
    (String.init 64 (fun k -> Char.chr ((k * 37) land 0xff)));
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rdi (i base);
  Asm.mov c Reg.rcx (i 0);
  Asm.mov c Reg.rax (i 0);
  Asm.label c "loop";
  Asm.load c Reg.rdx ~w:Insn.W8 (Asm.mbi Reg.rdi Reg.rcx);
  Asm.test c Reg.rdx (i 1);
  Asm.jz c "even";
  Asm.add c Reg.rax (r Reg.rdx);
  Asm.jmp c "next";
  Asm.label c "even";
  Asm.sub c Reg.rax (r Reg.rdx);
  Asm.label c "next";
  Asm.add c Reg.rcx (i 1);
  Asm.cmp c Reg.rcx (i 64);
  Asm.jlt c "loop";
  Asm.halt c;
  Asm.finish c

(* Push/pop and stack discipline. *)
let stack_ops () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (i 11);
  Asm.mov c Reg.rbx (i 22);
  Asm.push c (r Reg.rax);
  Asm.push c (r Reg.rbx);
  Asm.pop c Reg.rcx;
  Asm.pop c Reg.rdx;
  Asm.add c Reg.rcx (r Reg.rdx);
  Asm.halt c;
  Asm.finish c

(* Pointer chase through a linked list in memory. *)
let pointer_chase n =
  let base = 0x4000 in
  let c = Asm.create () in
  (* node k at base + 16k: [next; value] *)
  let buf = Buffer.create (16 * n) in
  for k = 0 to n - 1 do
    let next = if k = n - 1 then 0 else base + (16 * (k + 1)) in
    Buffer.add_int64_le buf (Int64.of_int next);
    Buffer.add_int64_le buf (Int64.of_int (k * 5))
  done;
  Asm.data c ~addr:(Int64.of_int base) (Buffer.contents buf);
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rdi (i base);
  Asm.mov c Reg.rax (i 0);
  Asm.label c "loop";
  Asm.load c Reg.rdx (Asm.mbd Reg.rdi 8);
  Asm.add c Reg.rax (r Reg.rdx);
  Asm.load c Reg.rdi (Asm.mb Reg.rdi);
  Asm.test c Reg.rdi (r Reg.rdi);
  Asm.jnz c "loop";
  Asm.halt c;
  Asm.finish c

let all_programs =
  [
    ("sum_loop", sum_loop 20);
    ("store_load_sum", store_load_sum 16);
    ("call_ret", call_ret ());
    ("division", division ());
    ("branchy", branchy ());
    ("stack_ops", stack_ops ());
    ("pointer_chase", pointer_chase 12);
  ]

(* --- equivalence checking ------------------------------------------- *)

let run_sequential ?(overlays = []) program =
  let state = Exec.init program in
  Exec.overlay state overlays;
  Exec.run_to_halt ~fuel:1_000_000 program state;
  state

let regs_equal (a : int64 array) (b : int64 array) =
  (* Compare general-purpose registers; flags and the hidden temporary
     are microarchitectural detail. *)
  List.for_all (fun r -> Int64.equal a.(Reg.to_int r) b.(Reg.to_int r)) Reg.all_gprs

let mem_equal ?(exclude = fun _ -> false) (a : Memory.t) (b : Memory.t) =
  let ok = ref true in
  let check pn bytes other_mem =
    if not (exclude pn) then
      let other = Memory.read_string other_mem (Int64.shift_left pn 12) 4096 in
      if not (String.equal (Bytes.to_string bytes) other) then ok := false
  in
  Memory.iter_pages a (fun pn bytes -> check pn bytes b);
  Memory.iter_pages b (fun pn bytes -> check pn bytes a);
  !ok

(* Pages holding the stack: return addresses pushed by [call] legitimately
   differ between a base binary and its relaid-out ProtCC binary. *)
let stack_pages (p : Protean_isa.Program.t) pn =
  let sp_page = Int64.shift_right_logical p.Protean_isa.Program.stack_base 12 in
  Int64.equal pn sp_page || Int64.equal pn (Int64.sub sp_page 1L)

(* Check that the pipeline under [policy] produces the sequential
   machine's architectural results. *)
let check_equivalence ?(config = Protean_ooo.Config.test_core) ?spec_model
    ?(overlays = []) ~policy name program =
  let seq = run_sequential ~overlays program in
  let result =
    Protean_ooo.Pipeline.run ?spec_model ~fuel:2_000_000 config policy program
      ~overlays
  in
  Alcotest.(check bool) (name ^ ": finished") true result.Protean_ooo.Pipeline.finished;
  if not (regs_equal seq.Exec.regs result.Protean_ooo.Pipeline.regs) then begin
    List.iter
      (fun reg ->
        let a = seq.Exec.regs.(Reg.to_int reg) in
        let b = result.Protean_ooo.Pipeline.regs.(Reg.to_int reg) in
        if not (Int64.equal a b) then
          Printf.printf "  %s: seq=%Ld ooo=%Ld\n" (Reg.name reg) a b)
      Reg.all_gprs;
    Alcotest.fail (name ^ ": register state diverged")
  end;
  if not (mem_equal seq.Exec.mem result.Protean_ooo.Pipeline.mem) then
    Alcotest.fail (name ^ ": memory state diverged")

(* --- fake shard workers ---------------------------------------------- *)

(* In-process worker transport for the supervisor's [?spawn] hook: a
   domain runs [Shard.serve] (the real worker loop) over pipes.
   [misbehave] replaces the loop for crash / stall scripts. *)
let domain_transport ?misbehave ~compute () =
  let module Shard = Protean_harness.Shard in
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let crashed = ref false in
  let d =
    Domain.spawn (fun () ->
        (match misbehave with
        | Some script -> ( try script in_r out_w with _ -> crashed := true)
        | None -> (
            try Shard.serve ~compute in_r out_w with _ -> crashed := true));
        (try Unix.close out_w with Unix.Unix_error _ -> ());
        try Unix.close in_r with Unix.Unix_error _ -> ())
  in
  {
    Protean_harness.Supervisor.t_pid = None;
    t_read = out_r;
    t_write = in_w;
    t_err = None;
    t_kill = ignore (* a domain cannot be killed; scripts return fast *);
    t_wait =
      (fun () ->
        Domain.join d;
        if !crashed then ("signal SIGSEGV", false) else ("exit 0", true));
  }

(* A [Campaign.t] as the flags would build it: in process on [jobs]
   domains, or supervised by [shards] workers, keeping [checkpoint];
   every other flag off. *)
let campaign ?(jobs = 1) ?(shards = 1) ?checkpoint () =
  {
    Protean_harness.Campaign.jobs;
    shards;
    worker = false;
    tele =
      {
        Protean_harness.Report.metrics_out = None;
        trace_out = None;
        flamegraph_out = None;
        attr_out = None;
      };
    log_json = false;
    listen = None;
    connect = None;
    token = "protean";
    metrics_listen = None;
    check_certs = false;
    paranoid_sched = false;
    checkpoint;
  }
