(* SPT — Speculative Privacy Tracking (Section III-C, VI-B2).

   Hardware-defined ProtSet: all registers and memory bytes that have not
   been architecturally transmitted in the past; targets constant-time
   code.  SPT extends AccessTrack in two ways:

   - it tracks a *transmitted* (therefore public) status for architectural
     registers and memory: once a transmitter retires, its sensitive
     operands become transmitted, and outputs computed solely from
     transmitted data are transmitted too;
   - a transmitter whose sensitive operand holds *untransmitted* data may
     only execute/resolve once it is non-speculative — only already-leaked
     data may leak speculatively.

   Because SPT cannot know at rename whether a load will read transmitted
   memory, it conservatively taints every load's output (the performance
   conservatism ProtTrack's predictor removes).

   [w32_fix] models the paper's upstreamed performance patch (Section
   VII-B4c): with the fix, a 32-bit register write — which zeroes the
   upper 32 bits — takes the transmitted-status of its source; without it,
   the stale status of the old upper bits lingers, keeping the register
   conservatively protected. *)

open Protean_ooo
open Protean_isa
open Protean_arch

type state = {
  reg_xmit : bool array; (* committed transmitted-status per register *)
  mem_xmit : Protset.t; (* protected = untransmitted *)
  w32_fix : bool;
}

let src_pub st (e : Rob_entry.t) api i =
  let r, _ = e.Rob_entry.srcs.(i) in
  let p = e.Rob_entry.src_producer.(i) in
  if p < 0 then st.reg_xmit.(Reg.to_int r)
  else
    let prod = api.Policy.peek p in
    if Rob_entry.is_null prod then st.reg_xmit.(Reg.to_int r)
      (* An in-flight producer's flags output is always a fresh,
         untransmitted value (its [pol_out_pub] describes the data
         destination). *)
    else if Reg.equal r Reg.flags then false
    else prod.Rob_entry.pol_out_pub

(* Transmitted-status of the value a register operand holds, looked up in
   the per-entry snapshot filled at rename.  Like every helper the gates
   and hooks below call, a top-level recursion or a [for] loop, so that
   no poll allocates a closure. *)
let rec reg_pub_from (e : Rob_entry.t) r i =
  if i >= Array.length e.Rob_entry.srcs then false
  else if Reg.equal (fst e.Rob_entry.srcs.(i)) r then e.Rob_entry.pol_src_pub.(i)
  else reg_pub_from e r (i + 1)

let reg_pub e r = reg_pub_from e r 0

let src_ok e = function Insn.Imm _ -> true | Insn.Reg r -> reg_pub e r
let opt_reg_pub e = function Some r -> reg_pub e r | None -> true

(* Is the (non-flags) value produced by [e] transmitted-equivalent to
   already-transmitted data?  SPT's unprotection extends from directly
   transmitted values only through *invertible* arithmetic dependencies
   (Section III-C): register moves, add/sub/xor/not/neg and stack-pointer
   bumps.  Lossy operations (and/or/shifts/mul/div/compares) produce
   fresh, untransmitted values even from transmitted inputs — which is
   why SPT must stall the first transmission of such values until they
   are non-speculative, its main cost on constant-time code
   (Section IX-B3).  Loads are resolved at execute from the memory
   shadow; here they are conservatively private.

   Flags outputs are never transmitted-equivalent: a comparison is not
   invertible.  They become transmitted only when a conditional branch
   retires (fully transmitting its condition). *)
let out_pub st (e : Rob_entry.t) =
  match e.Rob_entry.insn.Insn.op with
  | Insn.Mov (Insn.W64, _, s) -> src_ok e s
  | Insn.Mov (Insn.W32, d, s) ->
      if st.w32_fix then src_ok e s else src_ok e s && reg_pub e d
  | Insn.Mov (Insn.W8, _, _) -> false (* partial merge: not invertible *)
  | Insn.Lea (_, m) ->
      (* base + index*scale + disp is invertible in at most one register
         operand; with two, both must be transmitted. *)
      opt_reg_pub e m.Insn.base && opt_reg_pub e m.Insn.index
  | Insn.Binop ((Insn.Add | Insn.Sub | Insn.Xor), d, s) ->
      reg_pub e d && src_ok e s
  | Insn.Binop ((Insn.And | Insn.Or | Insn.Shl | Insn.Shr | Insn.Sar | Insn.Mul), _, _)
    ->
      false
  | Insn.Unop ((Insn.Not | Insn.Neg), d) -> reg_pub e d
  | Insn.Div _ | Insn.Rem _ -> false
  | Insn.Cmp _ | Insn.Test _ -> false
  | Insn.Setcc _ -> false
  | Insn.Cmov _ -> false
  | Insn.Call _ | Insn.Push _ -> reg_pub e Reg.rsp
  | Insn.Pop _ | Insn.Ret
  | Insn.Load _ | Insn.Store _ | Insn.Jcc _ | Insn.Jmp _ | Insn.Jmpi _
  | Insn.Nop | Insn.Halt ->
      false

(* Sensitive operands from source [i] on all hold transmitted data? *)
let rec sensitive_pub_from (e : Rob_entry.t) i =
  i >= Array.length e.Rob_entry.srcs
  || (((not (Insn.is_sensitive (snd e.Rob_entry.srcs.(i))))
       || e.Rob_entry.pol_src_pub.(i))
     && sensitive_pub_from e (i + 1))

let sensitive_pub e = sensitive_pub_from e 0

(* Transmitted-status a committing [e] gives its destination [r].  The
   stack pointer update of pop/ret is public arithmetic on rsp even
   though the loaded destination may be private. *)
let dst_pub (e : Rob_entry.t) r =
  if Reg.equal r Reg.flags then false (* fresh flags: untransmitted *)
  else
    match e.Rob_entry.insn.Insn.op with
    | Insn.Pop d ->
        if Reg.equal r d then e.Rob_entry.pol_out_pub else reg_pub e Reg.rsp
    | Insn.Ret ->
        if Reg.equal r Reg.tmp then e.Rob_entry.pol_out_pub
        else reg_pub e Reg.rsp
    | _ -> e.Rob_entry.pol_out_pub

let make ?(w32_fix = true) () =
  let st =
    {
      reg_xmit = Array.make Reg.count false;
      mem_xmit = Protset.create ();
      w32_fix;
    }
  in
  (* The stack pointer's initial value is public. *)
  st.reg_xmit.(Reg.to_int Reg.rsp) <- true;
  (* Policy-local counters for [Policy.metrics]: how much of the
     transmitted-status machinery actually fires. *)
  let n_xmit_retire = ref 0 in
  let n_public_loads = ref 0 in
  let n_shadow_stores = ref 0 in
  let on_rename api (e : Rob_entry.t) =
    for i = 0 to Array.length e.Rob_entry.pol_src_pub - 1 do
      e.Rob_entry.pol_src_pub.(i) <- src_pub st e api i
    done;
    e.Rob_entry.pol_out_pub <- out_pub st e;
    (* AccessTrack-style taint: every load taints its output at rename. *)
    let inherited = Policy.inherited_taint api e in
    let self = if Rob_entry.is_load e then e.Rob_entry.seq else -1 in
    e.Rob_entry.access_at_rename <- Rob_entry.is_load e;
    e.Rob_entry.taint_root <- max inherited self
  in
  let on_load_executed _api (e : Rob_entry.t) =
    (* The shadow tracks transmitted memory precisely: a load of
       transmitted bytes produces transmitted (public) data. *)
    if not (Protset.mem_protected st.mem_xmit e.Rob_entry.addr e.Rob_entry.msize)
    then begin
      e.Rob_entry.pol_out_pub <- true;
      incr n_public_loads
    end
  in
  let transmit_frontier api (e : Rob_entry.t) =
    if sensitive_pub e then Int.min e.Rob_entry.seq (Taint.sensitive_root api e)
    else e.Rob_entry.seq
  in
  let may_resolve api (e : Rob_entry.t) =
    (not (Policy.is_speculative api e))
    || (sensitive_pub e
       && (not (Taint.sensitive_tainted api e))
       && ((not (Taint.resolves_from_memory e))
          || (e.Rob_entry.pol_out_pub && not (Taint.own_load_tainted api e))))
  in
  let on_commit _api (e : Rob_entry.t) =
    (* Outputs derived from transmitted data are transmitted. *)
    let op = e.Rob_entry.insn.Insn.op in
    let dsts = e.Rob_entry.dsts in
    for i = 0 to Array.length dsts - 1 do
      st.reg_xmit.(Reg.to_int dsts.(i)) <- dst_pub e dsts.(i)
    done;
    (* Stores write their data operand's status into the memory shadow;
       call pushes a public return address. *)
    if Rob_entry.is_store e then begin
      let data_pub =
        match op with
        | Insn.Call _ -> true
        | Insn.Store (_, _, Insn.Imm _) | Insn.Push (Insn.Imm _) -> true
        | Insn.Store (_, _, Insn.Reg r) | Insn.Push (Insn.Reg r) ->
            reg_pub e r
        | _ -> false
      in
      Protset.set_mem st.mem_xmit e.Rob_entry.addr e.Rob_entry.msize
        ~protected:(not data_pub);
      incr n_shadow_stores
    end;
    (* Retiring a transmitter architecturally transmits its sensitive
       register operands: they are now public forever. *)
    if Rob_entry.is_transmitter e then incr n_xmit_retire;
    if Rob_entry.is_transmitter e then
      for i = 0 to Array.length e.Rob_entry.srcs - 1 do
        match e.Rob_entry.srcs.(i) with
        | r, (Insn.Addr | Insn.Cond_in | Insn.Target) ->
            st.reg_xmit.(Reg.to_int r) <- true
        | _, (Insn.Divide | Insn.Data) -> ()
      done
  in
  let metrics () =
    [
      ("transmitter_retirements", !n_xmit_retire);
      ("public_load_upgrades", !n_public_loads);
      ("shadow_store_writes", !n_shadow_stores);
    ]
  in
  {
    Policy.unsafe with
    Policy.name = (if w32_fix then "spt" else "spt-no-w32-fix");
    on_rename;
    on_load_executed;
    transmit_frontier;
    may_resolve;
    on_commit;
    metrics;
  }
