(* Architectural machine tests: sequential semantics, flags, memory,
   ProtSet tracking and the contract observers. *)

open Protean_isa
module Exec = Protean_arch.Exec
module Memory = Protean_arch.Memory
module Sem = Protean_arch.Sem
module Protset = Protean_arch.Protset
module Observer = Protean_arch.Observer
module Contract = Protean_arch.Contract

let reg st r = st.Exec.regs.(Reg.to_int r)

let run_prog p =
  let st = Exec.init p in
  Exec.run_to_halt ~fuel:100_000 p st;
  st

let test_arith_flags () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (Asm.i 5);
  Asm.sub c Reg.rax (Asm.i 5);
  Asm.setcc c Insn.Z Reg.rbx (* 1: result was zero *);
  Asm.mov c Reg.rcx (Asm.i 3);
  Asm.cmp c Reg.rcx (Asm.i 10);
  Asm.setcc c Insn.Lt Reg.rdx (* 1: 3 < 10 *);
  Asm.setcc c Insn.B Reg.rsi (* 1: 3 <u 10 *);
  Asm.mov c Reg.rdi (Asm.i (-1));
  Asm.cmp c Reg.rdi (Asm.i 1);
  Asm.setcc c Insn.Lt Reg.r8 (* 1: -1 < 1 signed *);
  Asm.setcc c Insn.B Reg.r9 (* 0: 0xfff... not <u 1 *);
  Asm.halt c;
  let st = run_prog (Asm.finish c) in
  Alcotest.(check int64) "zf" 1L (reg st Reg.rbx);
  Alcotest.(check int64) "lt" 1L (reg st Reg.rdx);
  Alcotest.(check int64) "b" 1L (reg st Reg.rsi);
  Alcotest.(check int64) "signed lt" 1L (reg st Reg.r8);
  Alcotest.(check int64) "unsigned not below" 0L (reg st Reg.r9)

let test_width_semantics () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (Asm.i64 0x1122334455667788L);
  Asm.mov c ~w:Insn.W32 Reg.rax (Asm.i64 0xaabbccddL) (* zero-extends *);
  Asm.mov c Reg.rbx (Asm.i64 0x1111111111111111L);
  Asm.mov c ~w:Insn.W8 Reg.rbx (Asm.i 0xff) (* merges low byte *);
  Asm.halt c;
  let st = run_prog (Asm.finish c) in
  Alcotest.(check int64) "w32 zero-extend" 0xaabbccddL (reg st Reg.rax);
  Alcotest.(check int64) "w8 merge" 0x11111111111111ffL (reg st Reg.rbx)

let test_div_fault_suppressed () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Arch "main";
  Asm.mov c Reg.rax (Asm.i 100);
  Asm.mov c Reg.rbx (Asm.i 0);
  Asm.div c Reg.rcx Reg.rax (Asm.r Reg.rbx);
  Asm.halt c;
  let st = run_prog (Asm.finish c) in
  Alcotest.(check int64) "div/0 = all ones" Int64.minus_one (reg st Reg.rcx);
  Alcotest.(check bool) "halted" true st.Exec.halted

let test_memory_endianness () =
  let m = Memory.create () in
  Memory.write m 0x100L 8 0x0102030405060708L;
  Alcotest.(check int64) "byte 0 is LSB" 8L (Int64.of_int (Memory.read_byte m 0x100L));
  Alcotest.(check int64) "read back" 0x0102030405060708L (Memory.read m 0x100L 8);
  Alcotest.(check int64) "partial" 0x0708L (Memory.read m 0x100L 2);
  Alcotest.(check int64) "unmapped reads zero" 0L (Memory.read m 0x999999L 8)

let test_protset_rules () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Unr "main";
  Asm.mov c ~prot:true Reg.rax (Asm.i 1) (* protect rax *);
  Asm.mov c Reg.rbx (Asm.i 2) (* unprotect rbx *);
  Asm.mov c Reg.rdi (Asm.i 0x5000);
  Asm.store c (Asm.mb Reg.rdi) (Asm.r Reg.rax) (* secret store: mem protected *);
  Asm.store c (Asm.mbd Reg.rdi 8) (Asm.r Reg.rbx) (* public store: unprot *);
  Asm.load c ~prot:true Reg.rcx (Asm.mb Reg.rdi) (* PROT load: mem unchanged *);
  Asm.load c Reg.rdx (Asm.mbd Reg.rdi 8) (* unprefixed: mem + dst unprot *);
  Asm.halt c;
  let p = Asm.finish c in
  let st = Exec.init p in
  let ps = Protset.create () in
  let rec loop () =
    if not st.Exec.halted then begin
      let eff = Exec.step p st in
      Protset.step ps eff;
      loop ()
    end
  in
  loop ();
  Alcotest.(check bool) "rax protected" true (Protset.reg_protected ps Reg.rax);
  Alcotest.(check bool) "rbx unprotected" false (Protset.reg_protected ps Reg.rbx);
  Alcotest.(check bool) "rcx protected (PROT load)" true (Protset.reg_protected ps Reg.rcx);
  Alcotest.(check bool) "rdx unprotected" false (Protset.reg_protected ps Reg.rdx);
  Alcotest.(check bool) "secret bytes protected" true
    (Protset.mem_protected ps 0x5000L 8);
  Alcotest.(check bool) "public bytes unprotected" false
    (Protset.mem_protected ps 0x5008L 8)

(* W8 sub-register writes leave full-register protection unchanged when
   unprefixed (Section IV-B1). *)
let test_protset_subregister () =
  let c = Asm.create () in
  Asm.func c ~klass:Program.Unr "main";
  Asm.mov c ~prot:true Reg.rax (Asm.i 1);
  Asm.mov c ~w:Insn.W8 Reg.rax (Asm.i 0) (* unprefixed W8: rax stays protected *);
  Asm.mov c ~prot:true Reg.rbx (Asm.i 1);
  Asm.mov c ~w:Insn.W32 Reg.rbx (Asm.i 0) (* W32 is a full write: unprotects *);
  Asm.halt c;
  let p = Asm.finish c in
  let st = Exec.init p in
  let ps = Protset.create () in
  while not st.Exec.halted do
    Protset.step ps (Exec.step p st)
  done;
  Alcotest.(check bool) "w8 keeps protection" true (Protset.reg_protected ps Reg.rax);
  Alcotest.(check bool) "w32 unprotects" false (Protset.reg_protected ps Reg.rbx)

(* Observer modes: secret-independent programs give equal traces when
   only secrets vary; a program that loads a secret differs under ARCH
   but not under CT when addresses are public. *)
let secret_prog ~use_secret =
  let c = Asm.create () in
  Asm.data c ~addr:0x6000L ~secret:true (String.make 8 '\000');
  Asm.func c ~klass:Program.Ct "main";
  Asm.mov c Reg.rdi (Asm.i 0x6000);
  if use_secret then Asm.load c Reg.rax (Asm.mb Reg.rdi)
  else Asm.mov c Reg.rax (Asm.i 7);
  Asm.add c Reg.rax (Asm.r Reg.rax);
  Asm.halt c;
  Asm.finish c

let overlay v = [ (0x6000L, let b = Buffer.create 8 in Buffer.add_int64_le b v; Buffer.contents b) ]

let test_observer_modes () =
  let p = secret_prog ~use_secret:true in
  let arch_a = Contract.run Observer.Arch_mode p ~overlays:(overlay 1L) in
  let arch_b = Contract.run Observer.Arch_mode p ~overlays:(overlay 2L) in
  Alcotest.(check bool) "ARCH exposes loaded secret" false
    (Contract.traces_equal arch_a.Contract.trace arch_b.Contract.trace);
  let ct_a = Contract.run Observer.Ct_mode p ~overlays:(overlay 1L) in
  let ct_b = Contract.run Observer.Ct_mode p ~overlays:(overlay 2L) in
  Alcotest.(check bool) "CT hides secret data" true
    (Contract.traces_equal ct_a.Contract.trace ct_b.Contract.trace)

let test_unprot_observer () =
  (* An unprefixed load of the secret exposes it under UNPROT-SEQ; a
     PROT-prefixed load hides it. *)
  let make_prog prot =
    let c = Asm.create () in
    Asm.data c ~addr:0x6000L ~secret:true (String.make 8 '\000');
    Asm.func c ~klass:Program.Unr "main";
    Asm.mov c Reg.rdi (Asm.i 0x6000);
    Asm.load c ~prot Reg.rax (Asm.mb Reg.rdi);
    Asm.halt c;
    Asm.finish c
  in
  let diff prot =
    let p = make_prog prot in
    let a = Contract.run Observer.Unprot_mode p ~overlays:(overlay 1L) in
    let b = Contract.run Observer.Unprot_mode p ~overlays:(overlay 2L) in
    not (Contract.traces_equal a.Contract.trace b.Contract.trace)
  in
  Alcotest.(check bool) "unprefixed load exposes" true (diff false);
  Alcotest.(check bool) "PROT load hides" false (diff true)

(* Property: Exec matches Sem on binop/flags algebra for random values. *)
let prop_sub_flags =
  QCheck2.Test.make ~name:"sub flags match comparisons" ~count:300
    QCheck2.Gen.(pair (map Int64.of_int int) (map Int64.of_int int))
    (fun (a, b) ->
      let fl = Sem.eval_cmp a b in
      Sem.eval_cond Insn.Z fl = Int64.equal a b
      && Sem.eval_cond Insn.Lt fl = (Int64.compare a b < 0)
      && Sem.eval_cond Insn.B fl = (Int64.unsigned_compare a b < 0)
      && Sem.eval_cond Insn.Ge fl = (Int64.compare a b >= 0)
      && Sem.eval_cond Insn.Ae fl = (Int64.unsigned_compare a b >= 0))

(* --- The page plane against bytewise reference models --------------- *)

(* The bytewise page table [Memory] replaced: every byte through a
   [Hashtbl] keyed by its boxed [int64] page number. *)
module Ref_memory = struct
  type t = (int64, Bytes.t) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let page_of addr = Int64.shift_right_logical addr 12
  let offset_of addr = Int64.to_int (Int64.logand addr 0xfffL)

  let read_byte t addr =
    match Hashtbl.find_opt t (page_of addr) with
    | None -> 0
    | Some p -> Char.code (Bytes.get p (offset_of addr))

  let write_byte t addr v =
    let p =
      match Hashtbl.find_opt t (page_of addr) with
      | Some p -> p
      | None ->
          let p = Bytes.make 4096 '\000' in
          Hashtbl.replace t (page_of addr) p;
          p
    in
    Bytes.set p (offset_of addr) (Char.chr (v land 0xff))

  let at addr i = Int64.add addr (Int64.of_int i)

  let read t addr size =
    let rec loop i acc =
      if i < 0 then acc
      else
        loop (i - 1)
          (Int64.logor (Int64.shift_left acc 8)
             (Int64.of_int (read_byte t (at addr i))))
    in
    loop (size - 1) 0L

  let write t addr size v =
    for i = 0 to size - 1 do
      write_byte t (at addr i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

  let write_string t addr s =
    String.iteri (fun i c -> write_byte t (at addr i) (Char.code c)) s

  let read_string t addr len =
    String.init len (fun i -> Char.chr (read_byte t (at addr i)))
end

type mem_op =
  | Read of int64 * int
  | Write of int64 * int * int64
  | Read_byte of int64
  | Write_string of int64 * string
  | Read_string of int64 * int

let show_mem_op = function
  | Read (a, n) -> Printf.sprintf "read %Lx %d" a n
  | Write (a, n, v) -> Printf.sprintf "write %Lx %d %Lx" a n v
  | Read_byte a -> Printf.sprintf "read_byte %Lx" a
  | Write_string (a, s) ->
      Printf.sprintf "write_string %Lx %d" a (String.length s)
  | Read_string (a, n) -> Printf.sprintf "read_string %Lx %d" a n

(* Page tails (offsets 4088-4095, so 4- and 8-byte accesses cross),
   anywhere in four adjacent pages, near 0, and near 2^64 - 8 (8-byte
   accesses there wrap to address 0). *)
let gen_addr =
  let open QCheck2.Gen in
  let at p o = Int64.of_int (0x20000 + (p * 4096) + o) in
  let in_pages off = map2 at (int_range 0 3) off in
  let near_top =
    map (fun o -> Int64.sub (-8L) (Int64.of_int o)) (int_range (-8) 8)
  in
  frequency
    [
      (4, in_pages (int_range 4088 4095));
      (4, in_pages (int_range 0 4095));
      (1, map Int64.of_int (int_range 0 16));
      (1, near_top);
    ]

let gen_mem_op =
  let open QCheck2.Gen in
  let size = oneofl [ 1; 4; 8 ] and len = int_range 0 (3 * 4096) in
  frequency
    [
      (4, map2 (fun a n -> Read (a, n)) gen_addr size);
      (4, map3 (fun a n v -> Write (a, n, v)) gen_addr size int64);
      (1, map (fun a -> Read_byte a) gen_addr);
      ( 1,
        map2
          (fun a s -> Write_string (a, s))
          gen_addr (string_size ~gen:char len) );
      (1, map2 (fun a n -> Read_string (a, n)) gen_addr len);
    ]

let page_keys iter =
  let keys = ref [] in
  iter (fun pn _ -> keys := pn :: !keys);
  List.sort compare !keys

let prop_memory_matches_reference =
  QCheck2.Test.make ~name:"page plane == bytewise reference" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) gen_mem_op)
    (fun ops ->
      let m = Memory.create () and r = Ref_memory.create () in
      let agree =
        List.for_all
          (function
            | Read (a, n) ->
                Int64.equal (Memory.read m a n) (Ref_memory.read r a n)
            | Write (a, n, v) ->
                Memory.write m a n v;
                Ref_memory.write r a n v;
                true
            | Read_byte a -> Memory.read_byte m a = Ref_memory.read_byte r a
            | Write_string (a, s) ->
                Memory.write_string m a s;
                Ref_memory.write_string r a s;
                true
            | Read_string (a, n) ->
                String.equal (Memory.read_string m a n)
                  (Ref_memory.read_string r a n))
          ops
      in
      (* Reads map no page: the mapped page sets and contents agree. *)
      agree
      && page_keys (Memory.iter_pages m)
         = page_keys (fun f -> Hashtbl.iter f r)
      && Hashtbl.fold
           (fun pn p ok ->
             ok
             && String.equal (Bytes.to_string p)
                  (Memory.read_string m (Int64.shift_left pn 12) 4096))
           r true)

(* The ProtSet's memory protection against a per-byte model: a set of
   unprotected addresses; every other byte is protected. *)
let prop_protset_matches_bytes =
  let open QCheck2.Gen in
  let op =
    triple gen_addr (oneofl [ 1; 4; 8 ]) (opt bool)
    (* [Some protected]: set_mem; [None]: query *)
  in
  QCheck2.Test.make ~name:"protset memory == per-byte model" ~count:300
    (list_size (int_range 1 60) op)
    (fun ops ->
      let ps = Protset.create () and unprot = Hashtbl.create 64 in
      let byte a i = Int64.add a (Int64.of_int i) in
      List.for_all
        (fun (a, n, set) ->
          match set with
          | Some protected ->
              Protset.set_mem ps a n ~protected;
              for i = 0 to n - 1 do
                if protected then Hashtbl.remove unprot (byte a i)
                else Hashtbl.replace unprot (byte a i) ()
              done;
              true
          | None ->
              let model =
                List.exists
                  (fun i -> not (Hashtbl.mem unprot (byte a i)))
                  (List.init n Fun.id)
              in
              Protset.mem_protected ps a n = model)
        ops)

module Gen = Protean_amulet.Gen

let gen_ct_program seed =
  Gen.generate { Gen.default_spec with seed; klass = Gen.G_ct }

let test_image_load_allocation () =
  let p = gen_ct_program 3 in
  ignore (Exec.init p);
  let w0 = Gc.minor_words () in
  let st = Exec.init p in
  let words = Gc.minor_words () -. w0 in
  if words >= 1000. then
    Alcotest.failf "Exec.init allocated %.0f minor words (limit 1000)" words;
  (* Boxed once here, not re-boxed for every call in the loop. *)
  let a = Sys.opaque_identity (Int64.of_int (Gen.public_base + 64)) in
  ignore (Memory.read st.Exec.mem a 8);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Memory.read st.Exec.mem a 8))
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 3000. then
    Alcotest.failf "1000 in-page 8-byte reads allocated %.0f words" words

(* The observer's address registers and the ProtSet's output registers
   are read off each step without [Insn.reads] / [Insn.writes] lists;
   both must still follow those lists, on one instance of every
   instruction form and on generated programs. *)
let ct_atoms_via_reads ~regv (eff : Exec.effect_) =
  let roles =
    List.filter_map
      (fun (r, role) ->
        match role with
        | Insn.Addr | Insn.Target -> Some (Observer.O_addr_reg (r, regv r))
        | Insn.Data | Insn.Cond_in | Insn.Divide -> None)
      (Insn.reads eff.e_insn.op)
  in
  let opt f = function Some x -> [ f x ] | None -> [] in
  (Observer.O_pc eff.e_pc :: roles)
  @ opt (fun (a, _, _) -> Observer.O_addr a) eff.e_load
  @ opt (fun (a, _, _) -> Observer.O_addr a) eff.e_store
  @ opt (fun (t, tg) -> Observer.O_branch (t, tg)) eff.e_branch
  @ opt
      (fun (n, d) ->
        Observer.O_div (Sem.bit_length n, Sem.bit_length d, Int64.equal d 0L))
      eff.e_div

let every_form =
  let m base index = { Insn.base; index; scale = 4; disp = 8 } in
  let mems =
    [ m None None; m (Some Reg.rbx) None; m None (Some Reg.rcx);
      m (Some Reg.rbx) (Some Reg.rcx) ]
  in
  let srcs = [ Insn.Reg Reg.rdx; Insn.Imm 3L ] in
  let each xs f = List.concat_map f xs in
  let open Insn in
  each [ W8; W32; W64 ] (fun w ->
      each srcs (fun s -> [ Mov (w, Reg.rax, s) ])
      @ each mems (fun mo ->
            Load (w, Reg.rax, mo) :: each srcs (fun s -> [ Store (w, mo, s) ])))
  @ each mems (fun mo -> [ Lea (Reg.rax, mo) ])
  @ each srcs (fun s ->
        [
          Binop (Add, Reg.rax, s); Div (Reg.rax, Reg.rbx, s);
          Rem (Reg.rax, Reg.rbx, s); Cmp (Reg.rax, s); Test (Reg.rax, s);
          Cmov (Z, Reg.rax, s); Push s;
        ])
  @ [
      Unop (Neg, Reg.rax); Setcc (Lt, Reg.rax); Jcc (Z, 1); Jmp 1;
      Jmpi Reg.rsi; Call 1; Ret; Pop Reg.rax; Pop Reg.rsp; Nop; Halt;
    ]

let step_agrees p st =
  let pre = Array.copy st.Exec.regs in
  let regv r = pre.(Reg.to_int r) in
  let eff = Exec.step p st in
  Observer.ct_atoms ~regv eff = ct_atoms_via_reads ~regv eff
  && List.map fst eff.e_written = Insn.writes eff.e_insn.op

let test_step_lists () =
  List.iter
    (fun op ->
      let p = Program.make [| Insn.make op; Insn.make Insn.Halt |] in
      let st = Exec.init p in
      Array.iteri
        (fun i _ -> st.Exec.regs.(i) <- Int64.of_int ((i * 0x101) + 7))
        st.Exec.regs;
      if not (step_agrees p st) then
        Alcotest.failf "step lists disagree on %s"
          (Insn.to_string (Insn.make op)))
    every_form;
  for seed = 1 to 20 do
    let p = gen_ct_program seed in
    let st = Exec.init p in
    let n = ref 0 in
    while (not st.Exec.halted) && !n < 20_000 do
      incr n;
      let pc = st.Exec.pc in
      if not (step_agrees p st) then
        Alcotest.failf "step lists disagree at pc %d of program %d" pc seed
    done
  done

let tests =
  [
    Alcotest.test_case "arithmetic flags" `Quick test_arith_flags;
    Alcotest.test_case "width semantics" `Quick test_width_semantics;
    Alcotest.test_case "div fault suppressed" `Quick test_div_fault_suppressed;
    Alcotest.test_case "memory endianness" `Quick test_memory_endianness;
    Alcotest.test_case "protset rules" `Quick test_protset_rules;
    Alcotest.test_case "protset subregister" `Quick test_protset_subregister;
    Alcotest.test_case "observer modes" `Quick test_observer_modes;
    Alcotest.test_case "unprot observer" `Quick test_unprot_observer;
    QCheck_alcotest.to_alcotest prop_sub_flags;
    QCheck_alcotest.to_alcotest prop_memory_matches_reference;
    QCheck_alcotest.to_alcotest prop_protset_matches_bytes;
    Alcotest.test_case "image load and word reads allocate little" `Quick
      test_image_load_allocation;
    Alcotest.test_case "step lists follow Insn.reads/writes" `Quick
      test_step_lists;
  ]
