(* Independent certificate checker (translation validation of ProtCC).

   [audit] validates the protection certificates a pass emitted against
   the SEQ contract executor in [lib/arch/], without re-running the
   pass's own analyses:

   - a *static* audit checks the certificate's internal consistency
     against the installed instrumentation: every unprotected
     instruction's relevant outputs must be covered by a claim, and
     every unprotection move must be justified by a fact at its point;

   - a *dynamic* audit replays the instrumented binary in lockstep on
     input pairs that differ only in secret memory and refutes any
     forward (value-equality) claim the executor can observe leaking: a
     forward-claimed register holding different values in the two
     executions is, by definition, secret-dependent, so omitting its
     PROT was unsound.

   Backward claims (bound-to-leak, all of CTS typing) are conditional on
   the program conforming to its class; the dynamic audit therefore
   stops a pair's replay — without flagging — at the first point where
   the pair's executions transmit different data (the program itself is
   out of class for that pair, voiding the conditional facts). *)

open Protean_isa
module Exec = Protean_arch.Exec

type violation = {
  v_fname : string;
  v_style : string;
  v_pc : int; (* original pc of the offending certificate point *)
  v_reason : string;
}

exception Cert_violation of violation

let violation_to_string v =
  Printf.sprintf "cert-violation: %s pass=%s pc=%d: %s" v.v_fname v.v_style
    v.v_pc v.v_reason

let () =
  Printexc.register_printer (function
    | Cert_violation v -> Some (violation_to_string v)
    | _ -> None)

type stats = { checked : int; claims : int; violations : violation list }

(* ------------------------------------------------------------------ *)
(* Static audit                                                        *)

let static_violations (c : Certificate.t) (code : Insn.t array) =
  if Certificate.claims_nothing c then []
  else begin
    let vs = ref [] in
    let add pc reason =
      vs :=
        {
          v_fname = c.Certificate.fname;
          v_style = Certificate.style_name c.Certificate.style;
          v_pc = pc;
          v_reason = reason;
        }
        :: !vs
    in
    Array.iteri
      (fun i (p : Certificate.point) ->
        let pc = c.Certificate.lo + i in
        let op = code.(pc).Insn.op in
        let after = Regset.union p.Certificate.fwd_after p.Certificate.bwd_after in
        if not p.Certificate.prot then
          List.iter
            (fun r ->
              if not (Regset.mem r after) then
                add pc
                  (Printf.sprintf "unprotected output %s has no claim"
                     (Reg.name r)))
            (Leak.relevant_outputs op);
        let before =
          Regset.union p.Certificate.fwd_before p.Certificate.bwd_before
        in
        let before =
          if i = 0 then Regset.union before c.Certificate.entry_public
          else before
        in
        if not (Regset.subset p.Certificate.unprotect_before before) then
          add pc "unprotection move without a justifying fact")
      c.Certificate.points;
    List.rev !vs
  end

(* ------------------------------------------------------------------ *)
(* Dynamic audit: executor-backed lockstep refutation                  *)

(* Map each relaid-out pc holding a certified function's instruction to
   its certificate point.  The instruction originally at [pc] sits at
   [old_to_new.(pc+1) - 1], after its unprotection moves. *)
let claim_table (res : Protcc.result) =
  let n = Array.length res.Protcc.program.Program.code in
  let tbl = Array.make n None in
  List.iter
    (fun (c : Certificate.t) ->
      if not (Certificate.claims_nothing c) then
        for pc = c.Certificate.lo to c.Certificate.hi - 1 do
          let np = res.Protcc.old_to_new.(pc + 1) - 1 in
          if np >= 0 && np < n then tbl.(np) <- Some (c, pc - c.Certificate.lo)
        done)
    res.Protcc.certs;
  tbl

(* Operands whose relational divergence voids a pair's conditional
   claims.  CT facts assume all fully-transmitted data agreed so far;
   CTS typing assumes every sensitive operand (including the partially
   transmitted division inputs) is public.  UNR's safe set is derived
   solely from constants and the stack pointer, so its claims survive
   arbitrary architectural leakage — only control divergence (which
   ends the lockstep anyway) stops that audit. *)
let voiding_operands style op =
  match (style : Certificate.style) with
  | Certificate.S_ct -> Leak.fully_transmitted op
  | Certificate.S_cts -> Leak.sensitive op
  | Certificate.S_unr | Certificate.S_arch | Certificate.S_rand ->
      Regset.empty

(* Replay [res.program] on two memory overlays in lockstep and refute
   forward claims.  Stops at the first violation (one witness is enough
   for the fault path) and at any execution divergence. *)
let lockstep ?fuel (res : Protcc.result) tbl (in1, in2) =
  let p = res.Protcc.program in
  let s1 = Exec.init p and s2 = Exec.init p in
  Exec.overlay s1 in1;
  Exec.overlay s2 in2;
  let found = ref None in
  let differs r = not (Int64.equal (Exec.reg s1 r) (Exec.reg s2 r)) in
  let flag (c : Certificate.t) i reason =
    if !found = None then
      found :=
        Some
          {
            v_fname = c.Certificate.fname;
            v_style = Certificate.style_name c.Certificate.style;
            v_pc = c.Certificate.lo + i;
            v_reason = reason;
          }
  in
  let refuted set c i where =
    match List.find_opt differs (Regset.to_list set) with
    | Some r ->
        flag c i
          (Printf.sprintf "forward claim on %s refuted %s pc" (Reg.name r)
             where);
        true
    | None -> false
  in
  let info_at pc =
    if pc >= 0 && pc < Array.length tbl then tbl.(pc) else None
  in
  Exec.lockstep ?fuel p s1 s2
    ~before:(fun pc ->
      match info_at pc with
      | None -> `Continue
      | Some (c, i) ->
          let point = c.Certificate.points.(i) in
          let op = (Program.insn p pc).Insn.op in
          (* Forward claims are value equalities: check before the
             step... *)
          if refuted point.Certificate.fwd_before c i "before" then `Stop
            (* ...then void the pair's conditional claims if this point
               transmits different data in the two executions. *)
          else if
            List.exists differs
              (Regset.to_list (voiding_operands c.Certificate.style op))
          then `Stop
          else `Continue)
    ~after:(fun pc ->
      match info_at pc with
      | None -> `Continue
      | Some (c, i) ->
          let point = c.Certificate.points.(i) in
          if refuted point.Certificate.fwd_after c i "after" then `Stop
          else `Continue);
  match !found with Some v -> [ v ] | None -> []

(* Self-generated input pairs for harness paths that have no fuzzer
   inputs at hand: seeded random byte strings over the program's secret
   regions (two fresh draws per pair). *)
let gen_pairs ?(pairs = 3) ?(seed = 0x5eed) (original : Program.t) =
  match Program.secret_ranges original with
  | [] -> []
  | ranges ->
      let rng = Random.State.make [| seed; List.length ranges |] in
      let draw () =
        List.map
          (fun (addr, len) ->
            ( addr,
              String.init (Int64.to_int len) (fun _ ->
                  Char.chr (Random.State.int rng 256)) ))
          ranges
      in
      List.init pairs (fun _ ->
          let a = draw () in
          let b = draw () in
          (a, b))

(* ------------------------------------------------------------------ *)

(* Audit every certificate in [res] against [original] (the pre-pass
   program the certificates' pc ranges refer to).  [inputs] supplies
   memory-overlay pairs for the dynamic audit; when absent, pairs are
   self-generated from the program's secret regions.  [on_cert] observes
   each audited certificate, so the harness can feed protean_cert_*
   telemetry without this library depending on the telemetry
   registry. *)
let audit ?fuel ?pairs ?seed ?inputs ?on_cert ~(original : Program.t)
    (res : Protcc.result) =
  let code = original.Program.code in
  let static_vs =
    List.concat_map (fun c -> static_violations c code) res.Protcc.certs
  in
  let input_pairs =
    match inputs with
    | Some l -> l
    | None -> gen_pairs ?pairs ?seed original
  in
  let tbl = claim_table res in
  let dyn_vs =
    List.concat_map (fun pair -> lockstep ?fuel res tbl pair) input_pairs
  in
  let violations = static_vs @ dyn_vs in
  let claims = ref 0 in
  List.iter
    (fun (c : Certificate.t) ->
      let cc = Certificate.claim_count c in
      claims := !claims + cc;
      let nv =
        List.length
          (List.filter (fun v -> v.v_fname = c.Certificate.fname) violations)
      in
      Option.iter
        (fun f ->
          f ~style:(Certificate.style_name c.Certificate.style) ~claims:cc
            ~violations:nv)
        on_cert)
    res.Protcc.certs;
  { checked = List.length res.Protcc.certs; claims = !claims; violations }

(* As [audit], but raise the first violation as a structured fault: an
   experiment cell's barrier turns it into a faulted (nan) cell. *)
let audit_exn ?fuel ?pairs ?seed ?inputs ?on_cert ~original res =
  let stats = audit ?fuel ?pairs ?seed ?inputs ?on_cert ~original res in
  match stats.violations with
  | [] -> stats
  | v :: _ -> raise (Cert_violation v)
