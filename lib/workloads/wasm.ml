(* The ARCH-Wasm suite (Section VIII-B2): sandboxed WebAssembly-style
   kernels, one per SPEC CPU2006 benchmark the paper compiles to Wasm.
   Every memory access is masked into a linear-memory region (the wasm2c
   sandboxing pattern), and the code never accesses secrets — the
   non-secret-accessing (ARCH) class.

   The kernels are deliberately indirection-heavy: loaded values feed
   load addresses and branch conditions, with working sets larger than
   the L1D.  On the unsafe baseline this gives memory-level parallelism
   across iterations; STT unconditionally taints every load output and
   so stalls each dependent transmitter until its producer retires,
   destroying that parallelism (the Section IX-B1 analysis of milc).
   PROTEAN only stalls the fraction of dependencies that read
   protected bytes in the protection-tagged L1D — lines already touched
   while resident are unprotected — recovering most of the speed. *)

open Protean_isa

let lin_base = 0x10000
let lin_size = 32 * 1024
    (* L1D-resident once touched: the protection-tagged L1D can retain
       unprotected status across passes *)
let lin_mask = lin_size - 1
let out_base = 0x8000

let seed_data () =
  String.init lin_size (fun i ->
      Char.chr ((i * 2654435761 + (i lsr 7)) land 0xff))

let prologue () =
  let c = Asm.create () in
  Asm.data c ~addr:(Int64.of_int lin_base) (seed_data ());
  Asm.bss c ~addr:(Int64.of_int out_base) 64;
  c

let finish_with c reg =
  Asm.store c (Asm.mem ~disp:out_base ()) (Asm.r reg);
  Asm.halt c;
  Asm.finish c

(* bzip2: byte histogram (loaded byte indexes the counter store) with a
   branchless run counter and several passes over the buffer. *)
let bzip2 ?(n = 4096) ?(passes = 4) () =
  let c = prologue () in
  Asm.bss c ~addr:0x9000L (256 * 8);
  Asm.func c ~klass:Program.Arch "bzip2_kernel";
  Asm.mov c Reg.r9 (Asm.i 0) (* pass *);
  Asm.mov c Reg.rdx (Asm.i 0) (* runs *);
  Asm.label c "pass";
  Asm.mov c Reg.rcx (Asm.i 0);
  Asm.label c "scan";
  (* histogram: load byte -> load counter -> store counter *)
  Asm.mov c Reg.rbp (Asm.r Reg.rcx);
  Asm.mul c Reg.rbp (Asm.i 7);
  Asm.and_ c Reg.rbp (Asm.i lin_mask);
  Asm.add c Reg.rbp (Asm.i lin_base);
  Asm.load c ~w:Insn.W8 Reg.rax (Asm.mb Reg.rbp);
  Asm.load c Reg.rbx { Insn.base = None; index = Some Reg.rax; scale = 8; disp = 0x9000 };
  Asm.add c Reg.rbx (Asm.i 1);
  Asm.store c { Insn.base = None; index = Some Reg.rax; scale = 8; disp = 0x9000 } (Asm.r Reg.rbx);
  (* branchless run counting *)
  Asm.mov c Reg.rsi (Asm.r Reg.rdx);
  Asm.add c Reg.rsi (Asm.i 1);
  Asm.test c Reg.rax (Asm.i 3);
  Asm.cmov c Insn.Z Reg.rdx (Asm.r Reg.rsi);
  Asm.add c Reg.rcx (Asm.i 1);
  Asm.cmp c Reg.rcx (Asm.i n);
  Asm.jlt c "scan";
  Asm.mark_measurement c;
  Asm.add c Reg.r9 (Asm.i 1);
  Asm.cmp c Reg.r9 (Asm.i passes);
  Asm.jlt c "pass";
  finish_with c Reg.rdx

(* mcf: four interleaved pointer chases over an L2-resident node table.
   The unsafe core overlaps misses across chains and iterations; STT
   forces every link to wait for its producer to retire, collapsing the
   memory-level parallelism.  Because the table does not fit in the L1D,
   evictions also erase protection state, making this the suite's worst
   case for PROTEAN (as in the paper's Table V, where mcf has the
   highest PROTEAN-Track overhead of the Wasm suite). *)
let mcf ?(nodes = 8192) ?(steps = 16384) () =
  let c = prologue () in
  let table_base = lin_base + lin_size (* separate 128 KiB node table *) in
  Asm.bss c ~addr:(Int64.of_int table_base) (nodes * 16);
  Asm.func c ~klass:Program.Arch "mcf_kernel";
  (* build links: node k at table + 16k -> next = perm(k) *)
  Asm.mov c Reg.rcx (Asm.i 0);
  Asm.label c "build";
  Asm.mov c Reg.rax (Asm.r Reg.rcx);
  Asm.mul c Reg.rax (Asm.i 3121) (* odd multiplier: a permutation *);
  Asm.add c Reg.rax (Asm.i 1);
  Asm.and_ c Reg.rax (Asm.i (nodes - 1));
  Asm.mov c Reg.rbp (Asm.r Reg.rcx);
  Asm.mul c Reg.rbp (Asm.i 16);
  Asm.add c Reg.rbp (Asm.i table_base);
  Asm.store c (Asm.mb Reg.rbp) (Asm.r Reg.rax);
  Asm.store c (Asm.mbd Reg.rbp 8) (Asm.r Reg.rcx);
  Asm.add c Reg.rcx (Asm.i 1);
  Asm.cmp c Reg.rcx (Asm.i nodes);
  Asm.jlt c "build";
  Asm.mark_measurement c;
  (* four chases in lockstep: cur in rdi/r8/r9/r10 *)
  Asm.mov c Reg.rdi (Asm.i 0);
  Asm.mov c Reg.r8 (Asm.i 1);
  Asm.mov c Reg.r9 (Asm.i 2);
  Asm.mov c Reg.r10 (Asm.i 3);
  Asm.mov c Reg.rdx (Asm.i 0) (* total *);
  Asm.mov c Reg.r11 (Asm.i 0) (* step *);
  Asm.label c "chase";
  let link cur =
    Asm.mov c Reg.rbp (Asm.r cur);
    Asm.mul c Reg.rbp (Asm.i 16);
    Asm.add c Reg.rbp (Asm.i table_base);
    Asm.load c Reg.rbx (Asm.mbd Reg.rbp 8);
    Asm.add c Reg.rdx (Asm.r Reg.rbx);
    Asm.load c cur (Asm.mb Reg.rbp)
  in
  link Reg.rdi;
  link Reg.r8;
  link Reg.r9;
  link Reg.r10;
  Asm.add c Reg.r11 (Asm.i 1);
  Asm.cmp c Reg.r11 (Asm.i (steps / 4));
  Asm.jlt c "chase";
  finish_with c Reg.rdx

(* milc: the gather pattern of the paper's analysis — an index array
   feeding dependent lattice loads, iterations independent, several
   sweeps over the lattice. *)
let milc ?(n = 2048) ?(passes = 4) () =
  let c = prologue () in
  Asm.func c ~klass:Program.Arch "milc_kernel";
  Asm.mov c Reg.r9 (Asm.i 0);
  Asm.mov c Reg.rdx (Asm.i 0) (* acc *);
  Asm.label c "sweep";
  Asm.mov c Reg.rcx (Asm.i 0);
  Asm.label c "site";
  (* idx = A[i] (sequential half of memory) *)
  Asm.mov c Reg.rbp (Asm.r Reg.rcx);
  Asm.mul c Reg.rbp (Asm.i 8);
  Asm.and_ c Reg.rbp (Asm.i (lin_size / 2 - 1));
  Asm.add c Reg.rbp (Asm.i lin_base);
  Asm.load c Reg.rax (Asm.mb Reg.rbp);
  (* val = B[idx & mask] (gather into the other half) *)
  Asm.and_ c Reg.rax (Asm.i (lin_size / 2 - 8));
  Asm.add c Reg.rax (Asm.i (lin_base + (lin_size / 2)));
  Asm.load c Reg.rbx (Asm.mb Reg.rax);
  Asm.add c Reg.rdx (Asm.r Reg.rbx);
  Asm.add c Reg.rcx (Asm.i 1);
  Asm.cmp c Reg.rcx (Asm.i n);
  Asm.jlt c "site";
  Asm.mark_measurement c;
  Asm.add c Reg.r9 (Asm.i 1);
  Asm.cmp c Reg.r9 (Asm.i passes);
  Asm.jlt c "sweep";
  finish_with c Reg.rdx

(* namd: force table lookups — arithmetic producing a table index. *)
let namd ?(pairs = 2048) ?(passes = 4) () =
  let c = prologue () in
  Asm.func c ~klass:Program.Arch "namd_kernel";
  Asm.mov c Reg.r9 (Asm.i 0);
  Asm.mov c Reg.r8 (Asm.i 0);
  Asm.label c "npass";
  Asm.mov c Reg.rcx (Asm.i 0);
  Asm.label c "pair";
  (* dist2 = f(i); force = table[dist2 & mask]; acc += force * dist2 *)
  Asm.mov c Reg.rax (Asm.r Reg.rcx);
  Asm.mul c Reg.rax (Asm.i 37);
  Asm.add c Reg.rax (Asm.i 11);
  Asm.mov c Reg.rbx (Asm.r Reg.rax);
  Asm.mul c Reg.rbx (Asm.r Reg.rax);
  Asm.mov c Reg.rbp (Asm.r Reg.rbx);
  Asm.and_ c Reg.rbp (Asm.i (lin_mask - 7));
  Asm.add c Reg.rbp (Asm.i lin_base);
  Asm.load c Reg.rsi (Asm.mb Reg.rbp);
  (* second-level lookup: the loaded force indexes a correction table *)
  Asm.and_ c Reg.rsi (Asm.i (lin_mask - 7));
  Asm.add c Reg.rsi (Asm.i lin_base);
  Asm.load c Reg.rdi (Asm.mb Reg.rsi);
  Asm.add c Reg.r8 (Asm.r Reg.rdi);
  Asm.add c Reg.rcx (Asm.i 1);
  Asm.cmp c Reg.rcx (Asm.i pairs);
  Asm.jlt c "pair";
  Asm.mark_measurement c;
  Asm.add c Reg.r9 (Asm.i 1);
  Asm.cmp c Reg.r9 (Asm.i passes);
  Asm.jlt c "npass";
  finish_with c Reg.r8

(* libquantum: gate sweeps applying a branchless controlled flip to
   amplitudes addressed through a permutation table — loaded indices
   feed load/store addresses. *)
let libquantum ?(amps = 2048) ?(gates = 6) () =
  let c = prologue () in
  Asm.func c ~klass:Program.Arch "libquantum_kernel";
  Asm.mov c Reg.r9 (Asm.i 0) (* gate *);
  Asm.mov c Reg.r8 (Asm.i 0) (* checksum *);
  Asm.label c "gate";
  Asm.mov c Reg.rcx (Asm.i 0);
  Asm.label c "amp";
  (* idx = perm[i] from the first half *)
  Asm.mov c Reg.rbp (Asm.r Reg.rcx);
  Asm.mul c Reg.rbp (Asm.i 8);
  Asm.and_ c Reg.rbp (Asm.i (lin_size / 2 - 1));
  Asm.add c Reg.rbp (Asm.i lin_base);
  Asm.load c Reg.rax (Asm.mb Reg.rbp);
  (* amplitude at table[idx & mask] in the second half *)
  Asm.and_ c Reg.rax (Asm.i (lin_size / 2 - 8));
  Asm.add c Reg.rax (Asm.i (lin_base + (lin_size / 2)));
  Asm.load c Reg.rbx (Asm.mb Reg.rax);
  (* control bit selects the flip, branchless *)
  Asm.mov c Reg.rsi (Asm.r Reg.rbx);
  Asm.xor c Reg.rsi (Asm.i 32);
  Asm.mov c Reg.rdi (Asm.r Reg.rbx);
  Asm.shr c Reg.rdi (Asm.r Reg.r9);
  Asm.test c Reg.rdi (Asm.i 1);
  Asm.cmov c Insn.Nz Reg.rbx (Asm.r Reg.rsi);
  Asm.store c (Asm.mb Reg.rax) (Asm.r Reg.rbx);
  Asm.add c Reg.r8 (Asm.r Reg.rbx);
  Asm.add c Reg.rcx (Asm.i 1);
  Asm.cmp c Reg.rcx (Asm.i amps);
  Asm.jlt c "amp";
  Asm.mark_measurement c;
  Asm.add c Reg.r9 (Asm.i 1);
  Asm.cmp c Reg.r9 (Asm.i gates);
  Asm.jlt c "gate";
  finish_with c Reg.r8

(* lbm: neighbour-index streaming update (gather stencil). *)
let lbm ?(cells = 2048) ?(steps = 6) () =
  let c = prologue () in
  Asm.func c ~klass:Program.Arch "lbm_kernel";
  Asm.mov c Reg.r9 (Asm.i 0);
  Asm.label c "step";
  Asm.mov c Reg.rcx (Asm.i 0);
  Asm.label c "cell";
  (* neighbour index loaded from the first half *)
  Asm.mov c Reg.rbp (Asm.r Reg.rcx);
  Asm.mul c Reg.rbp (Asm.i 8);
  Asm.and_ c Reg.rbp (Asm.i (lin_size / 2 - 1));
  Asm.add c Reg.rbp (Asm.i lin_base);
  Asm.load c Reg.rax (Asm.mb Reg.rbp);
  Asm.and_ c Reg.rax (Asm.i (lin_size / 2 - 8));
  Asm.add c Reg.rax (Asm.i (lin_base + (lin_size / 2)));
  Asm.load c Reg.rbx (Asm.mb Reg.rax);
  Asm.load c Reg.rdx (Asm.mbd Reg.rbp 8);
  Asm.add c Reg.rbx (Asm.r Reg.rdx);
  Asm.sar c Reg.rbx (Asm.i 1);
  Asm.store c (Asm.mbd Reg.rbp 8) (Asm.r Reg.rbx);
  Asm.add c Reg.rcx (Asm.i 2);
  Asm.cmp c Reg.rcx (Asm.i cells);
  Asm.jlt c "cell";
  Asm.mark_measurement c;
  Asm.add c Reg.r9 (Asm.i 1);
  Asm.cmp c Reg.r9 (Asm.i steps);
  Asm.jlt c "step";
  finish_with c Reg.rbx

let all =
  [
    ("bzip2", fun () -> bzip2 ());
    ("mcf", fun () -> mcf ());
    ("milc", fun () -> milc ());
    ("namd", fun () -> namd ());
    ("libquantum", fun () -> libquantum ());
    ("lbm", fun () -> lbm ());
  ]
