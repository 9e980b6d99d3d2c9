(* ProtCC-CTS (Section V-A2): instrumentation for static constant-time
   code via conservative secrecy-type inference.

   Following the Serberus approach, all registers start secretly typed;
   standard secrecy typing rules are applied iteratively, retyping a
   register definition public whenever a type error would otherwise arise
   (a transmitter with a secretly-typed sensitive operand), until
   convergence.  Because public-typed outputs require public-typed inputs,
   the "must be publicly typed" requirement propagates backwards through
   data dependencies; the fixpoint is exactly a backward may-analysis:

     PUBREQ_before(q) = sensitive(q)
                      ∪ (PUBREQ_after(q) \ writes(q))
                      ∪ (data inputs of q, when an output of q is in
                         PUBREQ_after(q))

   with PUBREQ_after(q) the union over successors.  All sensitive
   transmitter operands — including the partially-transmitted division
   inputs — must be publicly typed.

   The pass then PROT-prefixes every instruction with an output that is
   not required public (i.e. stays secretly typed) and inserts identity
   moves at function entry to architecturally unprotect each publicly
   typed argument. *)

open Protean_isa

let public_required (code : Insn.t array) cfg =
  let transfer pc a =
    let op = code.(pc).Insn.op in
    let writes = Regset.of_list (Insn.writes op) in
    let b = Regset.diff a writes in
    let b = Regset.union b (Leak.sensitive op) in
    let output_required =
      not (Regset.is_empty (Regset.inter writes a))
    in
    if output_required then Regset.union b (Leak.data_inputs op) else b
  in
  Dataflow.solve cfg ~dir:Dataflow.Backward ~top:Regset.empty
    ~boundary:Regset.empty ~meet:Regset.union ~transfer

(* Publicly-*derivable* registers: a forward must-analysis closing the
   required-public facts under computation — an output whose inputs are
   all publicly typed may itself be typed public (the typing rules only
   force secret outputs for secret inputs).  Without this, an
   instruction like `add r12, 1` whose flags output is dead would be
   secretly typed (and PROT-prefixed) even though its value is a
   function of the public loop counter, protecting the counter and
   turning every array access into a stalled access transmitter. *)
let public_derivable ~entry_public (code : Insn.t array) cfg
    (pubreq_before, pubreq_after) =
  let transfer pc x =
    let op = code.(pc).Insn.op in
    let i = pc - cfg.Cfg.lo in
    let x =
      match op with
      | Insn.Call _ -> Regset.singleton Reg.rsp
      | _ -> x
    in
    List.fold_left
      (fun acc r ->
        if Regset.mem r pubreq_after.(i) || Leak.output_public x op r then
          Regset.add r acc
        else Regset.remove r acc)
      x (Insn.writes op)
  in
  (* User annotations (Section V-C) seed additional public registers at
     function entry. *)
  let boundary =
    if Cfg.size cfg = 0 then Regset.add Reg.rsp entry_public
    else Regset.union entry_public (Regset.add Reg.rsp pubreq_before.(0))
  in
  Dataflow.solve cfg ~dir:Dataflow.Forward ~top:Regset.full ~boundary
    ~meet:Regset.inter ~transfer

(* Protection certificate: every CTS fact — required-public and
   derivable-public alike — is a *backward* claim.  The derivable
   analysis seeds its entry boundary from [pubreq_before.(0)] (the
   typing assumption about function arguments), so even its forward-
   looking facts are conditional on the program conforming to its
   inferred secrecy type and cannot be checked as value equalities. *)
let certificate ~entry_public ~fname (code : Insn.t array) ~lo ~hi
    (instr : Instr.t) =
  let cfg = Cfg.build code ~lo ~hi in
  let before, after = public_required code cfg in
  let deriv_before, deriv_after =
    public_derivable ~entry_public code cfg (before, after)
  in
  let points =
    Array.init (hi - lo) (fun i ->
        {
          Certificate.fwd_before = Regset.empty;
          fwd_after = Regset.empty;
          bwd_before = Regset.union before.(i) deriv_before.(i);
          bwd_after = Regset.union after.(i) deriv_after.(i);
          prot = instr.Instr.prot.(i);
          unprotect_before = instr.Instr.unprotect_before.(i);
        })
  in
  {
    Certificate.style = Certificate.S_cts;
    fname;
    lo;
    hi;
    entry_public;
    points;
  }

let run ?(entry_public = Regset.empty) (code : Insn.t array) ~lo ~hi =
  let cfg = Cfg.build code ~lo ~hi in
  let before, after = public_required code cfg in
  let _, deriv_after =
    public_derivable ~entry_public code cfg (before, after)
  in
  let out = Instr.make ~lo ~hi in
  for pc = lo to hi - 1 do
    let i = pc - lo in
    let op = code.(pc).Insn.op in
    let public r = Regset.mem r after.(i) || Regset.mem r deriv_after.(i) in
    let secret_output =
      List.exists (fun r -> not (public r)) (Leak.relevant_outputs op)
    in
    out.Instr.prot.(i) <- secret_output
  done;
  (* Unprotect publicly-typed function arguments (and any annotated
     public registers) on entry. *)
  if hi > lo then
    out.Instr.unprotect_before.(0) <-
      Regset.inter (Regset.union entry_public before.(0)) Instr.movable;
  out
