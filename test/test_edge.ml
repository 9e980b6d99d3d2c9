(* Edge-case and failure-injection tests across modules. *)

open Protean_isa
module Exec = Protean_arch.Exec
module Contract = Protean_arch.Contract
module Observer = Protean_arch.Observer
module Cache = Protean_ooo.Cache
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline

let test_decode_malformed () =
  Alcotest.check_raises "bad opcode"
    (Invalid_argument "Encode: bad opcode 200") (fun () ->
      ignore (Encode.decode_program (String.make 1 (Char.chr 200))))

let test_asm_undefined_label () =
  let c = Asm.create () in
  Asm.func c "main";
  Asm.jmp c "nowhere";
  Alcotest.check_raises "undefined label"
    (Invalid_argument "Asm.finish: undefined label nowhere") (fun () ->
      ignore (Asm.finish c))

let test_fuel_exhaustion () =
  (* An infinite loop must report finished = false, not hang. *)
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.label c "spin";
  Asm.add c Reg.rax (Asm.i 1);
  Asm.jmp c "spin";
  let p = Asm.finish c in
  let r =
    Pipeline.run ~fuel:5_000 Config.test_core Protean_ooo.Policy.unsafe p
      ~overlays:[]
  in
  Alcotest.(check bool) "not finished" false r.Pipeline.finished

let test_out_of_bounds_pc_halts () =
  (* Falling off the end of the code array halts cleanly. *)
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (Asm.i 7);
  let p = Asm.finish c in
  let st = Exec.init p in
  Exec.run_to_halt ~fuel:100 p st;
  Alcotest.(check bool) "halted" true st.Exec.halted;
  let r =
    Pipeline.run ~fuel:10_000 Config.test_core Protean_ooo.Policy.unsafe p
      ~overlays:[]
  in
  Alcotest.(check bool) "pipeline finished" true r.Pipeline.finished;
  Alcotest.(check int64) "result" 7L r.Pipeline.regs.(Reg.to_int Reg.rax)

(* L1D eviction erases protection knowledge: after evicting a line whose
   bytes were unprotected, the bytes read as protected again
   (Section IV-C2a: ProtISA forgets on eviction). *)
let test_cache_eviction_forgets_protection () =
  let cfg = { Config.size_kib = 1; ways = 1; line = 64; latency = 1 } in
  let cache = Cache.create cfg in
  (* 1 KiB direct-mapped: 16 sets; addresses 0 and 1024 conflict. *)
  ignore (Cache.access cache 0L);
  Cache.set_protection cache 0L 8 ~protected:false;
  Alcotest.(check bool) "unprotected while resident" false
    (Cache.protected_bytes cache 0L 8);
  ignore (Cache.access cache 1024L) (* evicts line 0 *);
  Alcotest.(check bool) "protected after eviction" true
    (Cache.protected_bytes cache 0L 8);
  (* refill: the line returns all-protected *)
  ignore (Cache.access cache 0L);
  Alcotest.(check bool) "refill is protected" true
    (Cache.protected_bytes cache 0L 8)

(* The protection bits of an access inside one line are read and
   written with one line lookup, those of a line-crossing access byte by
   byte: either way, the same as one byte at a time.  Random fills (with
   evictions), writes and reads of 1-8 bytes, a third of them crossing a
   line, on a small two-way cache against a twin written byte by byte. *)
let test_cache_protection_bytewise () =
  let cfg = { Config.size_kib = 1; ways = 2; line = 64; latency = 1 } in
  let c = Cache.create cfg and r = Cache.create cfg in
  let rng = Random.State.make [| 7 |] in
  let addr () =
    let line = Random.State.int rng 48 * 64 in
    Int64.of_int
      (if Random.State.int rng 3 = 0 then line + 64 - Random.State.int rng 7
       else line + Random.State.int rng 64)
  in
  let bytewise_protected a size =
    List.exists
      (fun i -> Cache.protected_bytes r (Int64.add a (Int64.of_int i)) 1)
      (List.init size Fun.id)
  in
  for step = 1 to 20_000 do
    let a = addr () and size = 1 + Random.State.int rng 8 in
    match Random.State.int rng 3 with
    | 0 ->
        ignore (Cache.access c a);
        ignore (Cache.access r a)
    | 1 ->
        let protected = Random.State.bool rng in
        Cache.set_protection c a size ~protected;
        for i = 0 to size - 1 do
          Cache.set_protection r (Int64.add a (Int64.of_int i)) 1 ~protected
        done
    | _ ->
        Alcotest.(check bool)
          (Printf.sprintf "step %d: %d bytes at %Ld" step size a)
          (bytewise_protected a size)
          (Cache.protected_bytes c a size)
  done

(* Call pushes a public return address: the stack slot must be
   unprotected in the architectural ProtSet. *)
let test_protset_call_pushes_public () =
  let c = Asm.create () in
  Asm.set_main c;
  Asm.func c ~klass:Program.Unr "main";
  Asm.call c "f";
  Asm.halt c;
  Asm.func c ~klass:Program.Unr "f";
  Asm.ret c;
  let p = Asm.finish c in
  let st = Exec.init p in
  let ps = Protean_arch.Protset.create () in
  let sp = Int64.sub p.Program.stack_base 8L in
  (* step the call only *)
  Protean_arch.Protset.step ps (Exec.step p st);
  Alcotest.(check bool) "return address unprotected" false
    (Protean_arch.Protset.mem_protected ps sp 8)

(* CTS observer: publicly-typed defs are exposed, secret-typed are not. *)
let test_cts_observer_typing () =
  let c = Asm.create () in
  Asm.data c ~addr:0x6000L ~secret:true (String.make 8 '\000');
  Asm.func c ~klass:Program.Cts "main";
  Asm.mov c Reg.rdi (Asm.i 0x6000);
  Asm.load c Reg.rax (Asm.mb Reg.rdi) (* secret *);
  Asm.mov c Reg.rbx (Asm.r Reg.rax) (* secret copy: pc 2 *);
  Asm.halt c;
  let p = Asm.finish c in
  let typing : Observer.typing = Hashtbl.create 4 in
  (* Claim (wrongly, for the test) that pc 2's rbx is publicly typed:
     then the two secrets must distinguish the traces. *)
  Hashtbl.replace typing 2 [ Reg.rbx ];
  let ov v =
    [ (0x6000L, let b = Buffer.create 8 in Buffer.add_int64_le b v; Buffer.contents b) ]
  in
  let a = Contract.run (Observer.Cts_mode typing) p ~overlays:(ov 1L) in
  let b = Contract.run (Observer.Cts_mode typing) p ~overlays:(ov 2L) in
  Alcotest.(check bool) "public def exposes value" false
    (Contract.traces_equal a.Contract.trace b.Contract.trace);
  (* With an empty typing the traces are equal (nothing exposed). *)
  let empty : Observer.typing = Hashtbl.create 1 in
  let a = Contract.run (Observer.Cts_mode empty) p ~overlays:(ov 1L) in
  let b = Contract.run (Observer.Cts_mode empty) p ~overlays:(ov 2L) in
  Alcotest.(check bool) "secret defs hidden" true
    (Contract.traces_equal a.Contract.trace b.Contract.trace)

let test_first_divergence () =
  let t1 = [| Observer.O_pc 0; Observer.O_pc 1 |] in
  let t2 = [| Observer.O_pc 0; Observer.O_pc 2 |] in
  Alcotest.(check (option int)) "diverges at 1" (Some 1)
    (Contract.first_divergence t1 t2);
  Alcotest.(check (option int)) "equal" None (Contract.first_divergence t1 t1);
  let t3 = [| Observer.O_pc 0 |] in
  Alcotest.(check (option int)) "length mismatch" (Some 1)
    (Contract.first_divergence t1 t3)

(* Deep recursion: stack discipline across many frames under defenses. *)
let test_deep_recursion () =
  let c = Asm.create () in
  Asm.set_main c;
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rdi (Asm.i 40);
  Asm.call c "down";
  Asm.halt c;
  Asm.func c ~klass:Program.Arch "down";
  Asm.test c Reg.rdi (Asm.r Reg.rdi);
  Asm.jz c "base";
  Asm.push c (Asm.r Reg.rdi);
  Asm.sub c Reg.rdi (Asm.i 1);
  Asm.call c "down";
  Asm.pop c Reg.rdi;
  Asm.add c Reg.rax (Asm.r Reg.rdi);
  Asm.ret c;
  Asm.label c "base";
  Asm.mov c Reg.rax (Asm.i 0);
  Asm.ret c;
  let p = Asm.finish c in
  List.iter
    (fun (d : Protean_defense.Defense.t) ->
      Helpers.check_equivalence
        ~policy:(d.Protean_defense.Defense.make ())
        ("deep recursion " ^ d.Protean_defense.Defense.id)
        p)
    Protean_defense.Defense.all

let tests =
  [
    Alcotest.test_case "decode malformed" `Quick test_decode_malformed;
    Alcotest.test_case "asm undefined label" `Quick test_asm_undefined_label;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "out-of-bounds pc halts" `Quick test_out_of_bounds_pc_halts;
    Alcotest.test_case "eviction forgets protection" `Quick
      test_cache_eviction_forgets_protection;
    Alcotest.test_case "L1D protection bits: line lookups == bytewise" `Quick
      test_cache_protection_bytewise;
    Alcotest.test_case "call pushes public" `Quick test_protset_call_pushes_public;
    Alcotest.test_case "cts observer typing" `Quick test_cts_observer_typing;
    Alcotest.test_case "first divergence" `Quick test_first_divergence;
    Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
  ]
