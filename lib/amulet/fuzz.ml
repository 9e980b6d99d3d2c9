(* The AMuLeT* fuzzing loop (Section VII-B): relational testing of
   microarchitectures against hardware-software security contracts.

   For each random program and input pair:
   1. run the SEQ contract executor under the configured observer mode on
      both inputs; skip the pair unless the contract traces are equal
      (the inputs are then contract-equivalent);
   2. run the hardware configuration under test on both inputs, recording
      attacker-visible events;
   3. compare the adversary's views: a difference on contract-equivalent
      inputs is a contract violation;
   4. classify as a false positive if the committed instruction streams of
      the two hardware executions differ (sequential, not transient,
      divergence — AMuLeT*'s automated post-processing filter).

   Long campaigns additionally get a robustness layer:
   - a campaign is one cell per program ([test_cell]: an exception
     barrier that retries once, then skips and reports, with a
     per-program cycle budget enforced by the pipeline watchdog); one
     driver, [finish], merges the cells however they were computed (or
     resumed from a checkpoint, through the cell codec) and shrinks and
     attributes the first violation;
   - [self_test] injects deliberate faults into the defense under test
     ([Fault_inject]) and reports any injected fault the campaign fails
     to flag — a detector gap. *)

open Protean_isa
open Protean_arch
open Protean_ooo
module Fault_inject = Protean_defense.Fault_inject

type adversary = Cache_tlb | Timing

let adversary_name = function Cache_tlb -> "cache+tlb" | Timing -> "timing"

type instrumentation =
  | I_none (* unmodified binary *)
  | I_pass of Protean_protcc.Protcc.pass

type campaign = {
  seed : int;
  programs : int;
  inputs_per_program : int;
  gen_klass : Gen.klass_gen;
  mode_of : Observer.typing -> Observer.mode;
      (* the contract's observer mode (may consume the CTS typing) *)
  instrumentation : instrumentation;
  adversary : adversary;
  config : Config.t;
  squash_bug : bool;
  spec_model : Policy.spec_model;
  timeout_cycles : int option;
      (* per-simulation watchdog budget: a run exceeding it raises
         [Pipeline.Sim_fault], which [run_resilient] turns into a skip *)
  check_certs : bool;
      (* audit each instrumented program's protection certificates
         against the SEQ executor (translation validation of ProtCC) on
         the same input pairs the campaign tests *)
  cert_fault : Protean_defense.Fault_inject.cert_mode option;
      (* pass-mutation injection: compile results are mutated as by a
         broken pass, so a campaign with [check_certs] must report
         certificate violations (checker self-test) *)
  paranoid_sched : bool; (* [Invariants.attach_sched] on every hardware run *)
}

let default_campaign =
  {
    seed = 1;
    programs = 20;
    inputs_per_program = 6;
    gen_klass = Gen.G_arch;
    mode_of = (fun _ -> Observer.Arch_mode);
    instrumentation = I_none;
    adversary = Cache_tlb;
    config = Config.test_core;
    squash_bug = false;
    spec_model = Policy.Atcommit;
    timeout_cycles = None;
    check_certs = false;
    cert_fault = None;
    paranoid_sched = false;
  }

type outcome = {
  mutable tests : int; (* contract-equivalent pairs actually compared *)
  mutable skipped : int; (* pairs filtered by contract-equivalence *)
  mutable violations : int;
  mutable false_positives : int;
  mutable example : (int * int) option; (* (program seed, input index) *)
  mutable certs_checked : int; (* certificates audited (check_certs) *)
  mutable cert_claims : int; (* individual (pc, register) claims *)
  mutable cert_violations : int;
  mutable cert_example : string option; (* first rendered Cert_violation *)
}

let fresh_outcome () =
  {
    tests = 0;
    skipped = 0;
    violations = 0;
    false_positives = 0;
    example = None;
    certs_checked = 0;
    cert_claims = 0;
    cert_violations = 0;
    cert_example = None;
  }

let merge_outcome ~into:(a : outcome) (b : outcome) =
  a.tests <- a.tests + b.tests;
  a.skipped <- a.skipped + b.skipped;
  a.violations <- a.violations + b.violations;
  a.false_positives <- a.false_positives + b.false_positives;
  if a.example = None then a.example <- b.example;
  a.certs_checked <- a.certs_checked + b.certs_checked;
  a.cert_claims <- a.cert_claims + b.cert_claims;
  a.cert_violations <- a.cert_violations + b.cert_violations;
  if a.cert_example = None then a.cert_example <- b.cert_example

(* Committed-PC projection of a hardware trace: equal streams mean any
   adversary-view divergence is transient leakage (true positive). *)
let committed_stream trace =
  List.filter_map
    (function
      | Hw_trace.E_timing { pc; _ } -> Some pc
      | _ -> None)
    (Hw_trace.all trace)

let adversary_view adversary trace =
  match adversary with
  | Cache_tlb -> Hw_trace.cache_tlb_view trace
  | Timing -> Hw_trace.timing_view trace

let observe campaign t =
  if campaign.paranoid_sched then Invariants.attach_sched t

let run_hw campaign (defense : Protean_defense.Defense.t) program overlays =
  let watchdog =
    { Pipeline.default_watchdog with Pipeline.budget = campaign.timeout_cycles }
  in
  Pipeline.run ~trace:true ~squash_bug:campaign.squash_bug
    ~spec_model:campaign.spec_model ~watchdog ~fuel:400_000
    ~on_start:(observe campaign) campaign.config
    (defense.Protean_defense.Defense.make ())
    program ~overlays

type pair_status = P_skipped | P_clean | P_violation | P_false_positive

(* Test one (program, input-pair); updates [out] and reports the pair's
   classification. *)
let test_pair campaign defense program mode ~public ~secret_a ~secret_b out
    ~tag =
  let overlays_a = [ public; secret_a ] in
  let overlays_b = [ public; secret_b ] in
  let ca = Contract.run ~fuel:50_000 mode program ~overlays:overlays_a in
  let cb = Contract.run ~fuel:50_000 mode program ~overlays:overlays_b in
  if ca.Contract.exhausted || cb.Contract.exhausted then begin
    out.skipped <- out.skipped + 1;
    P_skipped
  end
  else if not (Contract.traces_equal ca.Contract.trace cb.Contract.trace)
  then begin
    out.skipped <- out.skipped + 1;
    P_skipped
  end
  else begin
    let ha = run_hw campaign defense program overlays_a in
    let hb = run_hw campaign defense program overlays_b in
    out.tests <- out.tests + 1;
    let va = adversary_view campaign.adversary ha.Pipeline.trace in
    let vb = adversary_view campaign.adversary hb.Pipeline.trace in
    if not (Hw_trace.view_equal va vb) then begin
      let fp =
        committed_stream ha.Pipeline.trace <> committed_stream hb.Pipeline.trace
      in
      if fp then begin
        out.false_positives <- out.false_positives + 1;
        P_false_positive
      end
      else begin
        out.violations <- out.violations + 1;
        if out.example = None then out.example <- Some tag;
        P_violation
      end
    end
    else P_clean
  end

(* Instrument a generated program per the campaign, returning the program
   to run, the CTS typing table for the observer, and the full compile
   result (with certificates) for the checker.  An armed [cert_fault]
   mutates the result exactly as a broken pass would, so the campaign's
   hardware runs see the faulty binary too. *)
let prepare campaign program =
  match campaign.instrumentation with
  | I_none -> (program, Hashtbl.create 0, None)
  | I_pass pass ->
      let r = Protean_protcc.Protcc.instrument ~pass_override:pass program in
      let r =
        match campaign.cert_fault with
        | Some mode -> Fault_inject.mutate mode r
        | None -> r
      in
      (r.Protean_protcc.Protcc.program, r.Protean_protcc.Protcc.typing, Some r)

(* Program [index] is generated from [campaign.seed + index * stride]. *)
let program_seed_stride = 7919
let program_seed campaign index = campaign.seed + (index * program_seed_stride)

let generate_program campaign index =
  Gen.generate
    {
      Gen.default_spec with
      Gen.seed = program_seed campaign index;
      klass = campaign.gen_klass;
    }

(* Everything needed to replay one violating input pair, for shrinking. *)
type witness = {
  w_program : Program.t; (* instrumented program that violated *)
  w_mode : Observer.mode;
  w_public : int64 * string;
  w_secret_a : int64 * string;
  w_secret_b : int64 * string;
  w_tag : int * int;
}

(* Run every input pair of program [index] into a fresh outcome; the
   caller merges it on success, so a mid-program fault never leaves
   half-counted pairs behind.  [witness] captures the first violation. *)
let test_program ?witness ?cert_witness campaign defense ~index ~program =
  let out = fresh_outcome () in
  let pseed = program_seed campaign index in
  let original = program in
  let program, typing, compile = prepare campaign program in
  let mode = campaign.mode_of typing in
  let rng = Random.State.make [| pseed; 0xfeed |] in
  let public = Gen.random_public rng in
  let base_secret = Gen.random_secret rng in
  (* Same RNG draw order as the plain loop below consumed, so enabling
     the certificate audit does not perturb the campaign's inputs. *)
  let others =
    List.init campaign.inputs_per_program (fun _ -> Gen.random_secret rng)
  in
  (match (campaign.check_certs, compile) with
  | true, Some res ->
      (* Translation validation: audit the pass's certificates on the
         very input pairs this campaign tests. *)
      let inputs =
        List.map
          (fun other -> ([ public; base_secret ], [ public; other ]))
          others
      in
      let stats =
        Protean_protcc.Certify.audit ~inputs ~original res
      in
      out.certs_checked <- stats.Protean_protcc.Certify.checked;
      out.cert_claims <- stats.Protean_protcc.Certify.claims;
      out.cert_violations <-
        List.length stats.Protean_protcc.Certify.violations;
      (match stats.Protean_protcc.Certify.violations with
      | v :: _ ->
          out.cert_example <-
            Some (Protean_protcc.Certify.violation_to_string v);
          (match cert_witness with
          | Some r when !r = None -> r := Some v
          | _ -> ())
      | [] -> ())
  | _ -> ());
  List.iteri
    (fun k0 other ->
    let k = k0 + 1 in
    let status =
      test_pair campaign defense program mode ~public ~secret_a:base_secret
        ~secret_b:other out ~tag:(pseed, k)
    in
    match (status, witness) with
    | P_violation, Some w when !w = None ->
        w :=
          Some
            {
              w_program = program;
              w_mode = mode;
              w_public = public;
              w_secret_a = base_secret;
              w_secret_b = other;
              w_tag = (pseed, k);
            }
    | _ -> ())
    others;
  out

let run campaign (defense : Protean_defense.Defense.t) =
  let out = fresh_outcome () in
  for index = 0 to campaign.programs - 1 do
    let program = generate_program campaign index in
    merge_outcome ~into:out (test_program campaign defense ~index ~program)
  done;
  out

(* --- counterexample shrinking --------------------------------------- *)

(* Does the witness pair still violate when [w_program]'s code is
   replaced?  Runs the full contract-equivalence + adversary-view pipe,
   so a shrink step that changes the committed behaviour (breaking
   contract equivalence, or turning the divergence sequential) is
   rejected rather than misreported. *)
let pair_violates campaign defense program mode ~public ~secret_a ~secret_b =
  let scratch = fresh_outcome () in
  match
    test_pair campaign defense program mode ~public ~secret_a ~secret_b
      scratch ~tag:(0, 0)
  with
  | P_violation -> true
  | P_skipped | P_clean | P_false_positive -> false
  | exception Pipeline.Sim_fault _ -> false

type shrunk = {
  sh_program : Program.t; (* instrumented, shrunk *)
  sh_original_insns : int;
  sh_insns : int; (* live (non-nop, pre-halt) instructions left *)
  sh_attempts : int; (* candidate executions spent *)
  sh_verified : bool; (* the shrunk program still violates *)
}

let live_insns code cut =
  let n = ref 0 in
  for i = 0 to cut - 1 do
    match code.(i).Insn.op with Insn.Nop -> () | _ -> incr n
  done;
  !n

(* Greedy structural shrinking of a violating program: first truncate the
   tail (replacing a suffix with [halt]), then nop out surviving
   instructions one at a time, keeping every step that preserves the
   violation.  Branch targets are absolute, so both operations leave the
   surviving code's control flow intact. *)
let shrink_witness ?(budget = 64) campaign defense (w : witness) =
  let halt = Insn.make Insn.Halt in
  let nop = Insn.make Insn.Nop in
  let code0 = w.w_program.Program.code in
  let len = Array.length code0 in
  let attempts = ref 0 in
  let violates code =
    incr attempts;
    pair_violates campaign defense
      (Program.with_code w.w_program code)
      w.w_mode ~public:w.w_public ~secret_a:w.w_secret_a
      ~secret_b:w.w_secret_b
  in
  let truncate_at c =
    Array.mapi (fun i insn -> if i >= c then halt else insn) code0
  in
  (* Phase 1: pull the halt boundary towards the entry point. *)
  let cut = ref len in
  let step = ref (len / 2) in
  while !step >= 1 && !attempts < budget do
    let c = !cut - !step in
    if c > w.w_program.Program.main && violates (truncate_at c) then cut := c
    else step := !step / 2
  done;
  (* Phase 2: nop out individual surviving instructions. *)
  let code = ref (truncate_at !cut) in
  for i = 0 to !cut - 1 do
    if !attempts < budget then begin
      match !code.(i).Insn.op with
      | Insn.Nop | Insn.Halt -> ()
      | _ ->
          let cand = Array.copy !code in
          cand.(i) <- nop;
          if violates cand then code := cand
    end
  done;
  let final = Program.with_code w.w_program !code in
  {
    sh_program = final;
    sh_original_insns = len;
    sh_insns = live_insns !code !cut;
    sh_attempts = !attempts;
    sh_verified =
      pair_violates campaign defense final w.w_mode ~public:w.w_public
        ~secret_a:w.w_secret_a ~secret_b:w.w_secret_b;
  }

(* --- leakage attribution --------------------------------------------- *)

module Twindow = Protean_telemetry.Window

(* Replay one hardware run of the witness with a full-mode speculation
   ledger attached, returning the detached ledger. *)
let run_hw_ledger campaign (defense : Protean_defense.Defense.t) program
    overlays =
  let slot = ref None in
  let watchdog =
    { Pipeline.default_watchdog with Pipeline.budget = campaign.timeout_cycles }
  in
  ignore
    (Pipeline.run ~trace:true ~squash_bug:campaign.squash_bug
       ~spec_model:campaign.spec_model ~watchdog ~fuel:400_000
       ~on_start:(fun t ->
         observe campaign t;
         slot := Some (t, Spec_window.attach ~full:true t))
       campaign.config
       (defense.Protean_defense.Defense.make ())
       program ~overlays);
  match !slot with
  | Some (t, led) ->
      Spec_window.detach t led;
      led
  | None -> invalid_arg "Fuzz.run_hw_ledger: on_start never fired"

let attribution_of_window (w : Spec_window.window)
    (x : Spec_window.xmit option) =
  {
    Twindow.at_family = Spec_window.trigger_family w.Spec_window.w_trigger;
    at_xmit_pc = (match x with Some x -> x.Spec_window.x_pc | None -> -1);
    at_src_pc = (match x with Some x -> x.Spec_window.x_src_pc | None -> -1);
    at_window_id = w.Spec_window.w_id;
    at_window_pc = w.Spec_window.w_pc;
    at_window_depth = w.Spec_window.w_depth;
  }

(* Execution-order (pc, addr) walk over two transmitter logs (the ledger
   stores them newest first): the first differing entry is the earliest
   access the two runs disagree on — the divergence the adversary saw.
   Prefer the tainted side of the disagreement: that is the entry whose
   operand carried transient data. *)
let first_diverging_xmit la lb =
  let rec go xs ys =
    match (xs, ys) with
    | (x : Spec_window.xmit) :: xs', (y : Spec_window.xmit) :: ys' ->
        if
          x.Spec_window.x_pc = y.Spec_window.x_pc
          && x.Spec_window.x_addr = y.Spec_window.x_addr
        then go xs' ys'
        else if x.Spec_window.x_tainted then Some x
        else if y.Spec_window.x_tainted then Some y
        else Some x
    | x :: _, [] -> Some x
    | [], y :: _ -> Some y
    | [], [] -> None
  in
  go (List.rev la) (List.rev lb)

(* Attribute a captured violation: replay both halves of the witness
   pair with full ledgers and locate the leak.

   Heuristic, strongest evidence first:
   1. a *leaky* window (closed by its own misprediction with >= 1
      tainted transmitter under it) on either run — the canonical
      transient-leak shape; the record names its first tainted
      transmitter and the access its operand derived from, and the
      family follows the trigger (v1 conditional / v2 indirect / rsb
      return);
   2. otherwise, the first window (aligned by id — both runs execute the
      same code, so ids agree up to the divergence) whose transmitter
      logs differ between the runs;
   3. otherwise a window-less divergence of the global transmitter logs:
      with memory-order violations on either run that is the v4
      (store-bypass) shape, else "unknown".

   Replay faults degrade to [None] rather than aborting the campaign's
   reporting. *)
let attribute_witness campaign defense (w : witness) =
  match
    ( run_hw_ledger campaign defense w.w_program [ w.w_public; w.w_secret_a ],
      run_hw_ledger campaign defense w.w_program [ w.w_public; w.w_secret_b ] )
  with
  | exception _ -> None
  | la, lb -> (
      let first_tainted log =
        List.find_opt
          (fun (x : Spec_window.xmit) -> x.Spec_window.x_tainted)
          (List.rev log)
      in
      let leaky =
        match (Spec_window.leaky_windows la, Spec_window.leaky_windows lb) with
        | w :: _, [] | [], w :: _ -> Some w
        | wa :: _, wb :: _ ->
            Some
              (if wa.Spec_window.w_id <= wb.Spec_window.w_id then wa else wb)
        | [], [] -> None
      in
      match leaky with
      | Some lw ->
          let x =
            match first_tainted lw.Spec_window.w_log with
            | Some _ as x -> x
            | None -> (
                match List.rev lw.Spec_window.w_log with
                | x :: _ -> Some x
                | [] -> None)
          in
          Some (attribution_of_window lw x)
      | None -> (
          let by_id led =
            List.map
              (fun (w : Spec_window.window) -> (w.Spec_window.w_id, w))
              (Spec_window.closed_windows led)
          in
          let wa = by_id la and wb = by_id lb in
          let ids =
            List.sort_uniq compare (List.map fst wa @ List.map fst wb)
          in
          let diverged =
            List.find_map
              (fun id ->
                match (List.assoc_opt id wa, List.assoc_opt id wb) with
                | Some a, Some b -> (
                    match
                      first_diverging_xmit a.Spec_window.w_log
                        b.Spec_window.w_log
                    with
                    | Some x -> Some (a, Some x)
                    | None -> None)
                | Some a, None ->
                    Some (a, first_diverging_xmit a.Spec_window.w_log [])
                | None, Some b ->
                    Some (b, first_diverging_xmit [] b.Spec_window.w_log)
                | None, None -> None)
              ids
          in
          match diverged with
          | Some (w, x) -> Some (attribution_of_window w x)
          | None ->
              let family =
                if
                  Spec_window.order_violations la > 0
                  || Spec_window.order_violations lb > 0
                then "v4"
                else "unknown"
              in
              let x =
                first_diverging_xmit
                  (List.rev (Spec_window.global_log la))
                  (List.rev (Spec_window.global_log lb))
              in
              Some
                {
                  Twindow.at_family = family;
                  at_xmit_pc =
                    (match x with
                    | Some x -> x.Spec_window.x_pc
                    | None -> -1);
                  at_src_pc =
                    (match x with
                    | Some x -> x.Spec_window.x_src_pc
                    | None -> -1);
                  at_window_id = -1;
                  at_window_pc = -1;
                  at_window_depth = -1;
                }))

(* --- campaign cells ---------------------------------------------------- *)

module Json = Protean_telemetry.Json

(* One program of a campaign under the exception barrier: its outcome,
   or — when it faulted on both attempts — an empty outcome and the
   reason it was skipped.  Cells carry no witness: [finish] replays the
   one program it needs. *)
type cell = { c_index : int; c_outcome : outcome; c_skip : string option }

(* [Sim_fault] dumps rendered in full; anything else through its
   registered printer ([Cert_violation] renders its violation). *)
let describe_exn = function
  | Pipeline.Sim_fault f -> Pipeline.fault_to_string f
  | e -> Printexc.to_string e

(* [test_program] for program [index] (or [program], when the caller
   overrides it), retried once and then skipped.  [cert_poison] is for
   shard workers: a refuted certificate escalates to a structured
   [Cert_violation] cell fault, so the supervisor poisons only this cell
   and its ledger records the rendered violation. *)
let test_cell ?(cert_poison = false) ?program campaign defense index =
  let program =
    match program with Some p -> p | None -> generate_program campaign index
  in
  let cert_witness = ref None in
  let attempt () = test_program ~cert_witness campaign defense ~index ~program in
  let cell ?skip o = { c_index = index; c_outcome = o; c_skip = skip } in
  let passed o =
    match !cert_witness with
    | Some v when cert_poison -> raise (Protean_protcc.Certify.Cert_violation v)
    | _ -> cell o
  in
  match attempt () with
  | o -> passed o
  | exception _ -> (
      match attempt () with
      | o -> passed o
      | exception e -> cell ~skip:(describe_exn e) (fresh_outcome ()))

(* A cell as a shard frame or checkpoint payload; the cell's index rides
   alongside.  The certificate verdict rides along only when the campaign
   audits certificates, so the encodings of a plain campaign keep their
   bytes; absent fields decode as 0 / none. *)
let cell_to_json campaign c =
  let o = c.c_outcome in
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    ([
       ("tests", Json.Int o.tests);
       ("skipped", Json.Int o.skipped);
       ("violations", Json.Int o.violations);
       ("false_positives", Json.Int o.false_positives);
       ( "example",
         opt (fun (s, k) -> Json.List [ Json.Int s; Json.Int k ]) o.example );
       ("skip", opt (fun r -> Json.Str r) c.c_skip);
     ]
    @
    if campaign.check_certs then
      [
        ("certs_checked", Json.Int o.certs_checked);
        ("cert_claims", Json.Int o.cert_claims);
        ("cert_violations", Json.Int o.cert_violations);
        ("cert_example", opt (fun s -> Json.Str s) o.cert_example);
      ]
    else [])

let cell_of_json index j =
  let int k = Json.to_int (Json.member k j) in
  let cert k = match Json.member k j with Json.Int n -> n | _ -> 0 in
  let str k = match Json.member k j with Json.Str s -> Some s | _ -> None in
  let o =
    {
      tests = int "tests";
      skipped = int "skipped";
      violations = int "violations";
      false_positives = int "false_positives";
      example =
        (match Json.member "example" j with
        | Json.List [ Json.Int s; Json.Int k ] -> Some (s, k)
        | _ -> None);
      certs_checked = cert "certs_checked";
      cert_claims = cert "cert_claims";
      cert_violations = cert "cert_violations";
      cert_example = str "cert_example";
    }
  in
  { c_index = index; c_outcome = o; c_skip = str "skip" }

(* --- the campaign driver ------------------------------------------------ *)

type skip = {
  sk_index : int; (* program index in the campaign *)
  sk_seed : int; (* its generator seed *)
  sk_reason : string;
}

type report = {
  r_outcome : outcome;
  r_completed : int; (* programs fully tested *)
  r_skipped : skip list; (* programs dropped after retry, oldest first *)
  r_counterexample : shrunk option; (* shrunk first violation *)
  r_attribution : Twindow.attribution option;
      (* ledger replay of the first violation *)
}

(* The one campaign merge, however the cells were computed (serially,
   on domains, by shard workers, or in a run a checkpoint resumes):
   merge [cells] in index order, list the skipped programs, then replay
   the program of the merged first violation ([program] supplies its
   code) to capture the witness that is shrunk and attributed.  A
   campaign without violations replays nothing. *)
let finish ?(shrink = true) ?(shrink_budget = 64) ?(program = fun _ -> None)
    campaign defense cells =
  let cells = List.sort (fun a b -> compare a.c_index b.c_index) cells in
  let total = fresh_outcome () in
  List.iter (fun c -> merge_outcome ~into:total c.c_outcome) cells;
  let skips =
    List.filter_map
      (fun c ->
        Option.map
          (fun sk_reason ->
            {
              sk_index = c.c_index;
              sk_seed = program_seed campaign c.c_index;
              sk_reason;
            })
          c.c_skip)
      cells
  in
  let witness =
    match total.example with
    | None -> None
    | Some (pseed, _) ->
        let index = (pseed - campaign.seed) / program_seed_stride in
        let w = ref None in
        let program =
          match program index with
          | Some p -> p
          | None -> generate_program campaign index
        in
        (try ignore (test_program ~witness:w campaign defense ~index ~program)
         with _ -> ());
        !w
  in
  let counterexample =
    match witness with
    | Some w when shrink ->
        Some (shrink_witness ~budget:shrink_budget campaign defense w)
    | _ -> None
  in
  {
    r_outcome = total;
    r_completed = campaign.programs - List.length skips;
    r_skipped = skips;
    r_counterexample = counterexample;
    r_attribution = Option.bind witness (attribute_witness campaign defense);
  }

(* The serial driver: one cell after another, then [finish].
   [program_of] lets harnesses splice specific programs into the
   campaign (used by the robustness self-tests); it is asked once per
   program, in index order, as the program starts. *)
let run_resilient ?shrink ?shrink_budget ?program_of campaign
    (defense : Protean_defense.Defense.t) =
  let cells = ref [] and witness_program = ref None in
  for index = 0 to campaign.programs - 1 do
    let program = Option.bind program_of (fun f -> f index) in
    let cell = test_cell ?program campaign defense index in
    cells := cell :: !cells;
    if !witness_program = None && cell.c_outcome.example <> None then
      witness_program := Some (index, program)
  done;
  finish ?shrink ?shrink_budget
    ~program:(fun index ->
      match !witness_program with Some (i, p) when i = index -> p | _ -> None)
    campaign defense (List.rev !cells)

(* --- fuzzer self-test via fault injection ----------------------------- *)

type gap = {
  g_mode : Fault_inject.mode;
  g_tests : int;
  g_violations : int;
  g_detected : bool; (* the campaign flagged the injected fault *)
}

(* Inject each fault mode into [defense] and rerun the campaign: a mode
   whose campaign reports no violation is a detector gap — the harness
   would also miss a comparable real bug. *)
let self_test ?(modes = Fault_inject.all_modes) campaign defense =
  List.map
    (fun m ->
      let faulty = Fault_inject.inject m defense in
      let r = run_resilient ~shrink:false campaign faulty in
      {
        g_mode = m;
        g_tests = r.r_outcome.tests;
        g_violations = r.r_outcome.violations;
        g_detected = r.r_outcome.violations > 0;
      })
    modes

let gaps reports = List.filter (fun g -> not g.g_detected) reports

(* Campaign skeleton for a named contract (the CLI's --contract values). *)
let campaign_for ?(seed = 1) ~programs ~inputs contract =
  let mode_of, gen_klass, instrumentation =
    match contract with
    | "arch" -> ((fun _ -> Observer.Arch_mode), Gen.G_arch, I_none)
    | "cts" ->
        ( (fun typing -> Observer.Cts_mode typing),
          Gen.G_ct,
          I_pass Protean_protcc.Protcc.P_cts )
    | "ct" ->
        ((fun _ -> Observer.Ct_mode), Gen.G_ct, I_pass Protean_protcc.Protcc.P_ct)
    | "unprot" ->
        ( (fun _ -> Observer.Unprot_mode),
          Gen.G_ct,
          I_pass (Protean_protcc.Protcc.P_rand (seed, 0.5)) )
    | s -> invalid_arg ("Fuzz.campaign_for: unknown contract " ^ s)
  in
  {
    default_campaign with
    seed;
    programs;
    inputs_per_program = inputs;
    mode_of;
    gen_klass;
    instrumentation;
  }

(* The defenses are layered, so a fault in one layer is often masked by
   another (e.g. dropping ProtISA protection bits under ProtTrack leaves
   its STT-style taint layer intact).  Each fault mode is therefore
   paired with a defense and contract where the broken layer is
   load-bearing: a functioning fuzzer MUST flag every row, so any miss
   is a detector gap regardless of which defense the user fuzzes. *)
let canonical_pairings =
  [
    (Fault_inject.F_unprotect, "prot-delay", "ct");
    (Fault_inject.F_drop_taint, "stt", "arch");
    (Fault_inject.F_corrupt_predictor, "prot-track", "arch");
    (Fault_inject.F_open_execute_gate, "prot-track", "ct");
    (Fault_inject.F_open_forward_gate, "nda", "arch");
    (Fault_inject.F_open_resolve_gate, "prot-track", "ct");
  ]

(* One row of the self-test matrix: the pairing's fault injected into
   its defense, fuzzed against its contract. *)
let self_test_pairing ?(seed = 1) ?(programs = 8) ?(inputs = 3) ?timeout_cycles
    ?(paranoid_sched = false) (m, defense_id, contract) =
  let campaign = campaign_for ~seed ~programs ~inputs contract in
  let campaign = { campaign with timeout_cycles; paranoid_sched } in
  let d = Protean_defense.Defense.find defense_id in
  match self_test ~modes:[ m ] campaign d with
  | [ g ] -> (defense_id, contract, g)
  | _ -> assert false

let self_test_matrix ?seed ?programs ?inputs ?timeout_cycles () =
  List.map
    (self_test_pairing ?seed ?programs ?inputs ?timeout_cycles)
    canonical_pairings

(* --- contract shorthands -------------------------------------------- *)

let arch_seq = (fun _ -> Observer.Arch_mode)
let ct_seq = (fun _ -> Observer.Ct_mode)
let cts_seq = (fun typing -> Observer.Cts_mode typing)
let unprot_seq = (fun _ -> Observer.Unprot_mode)
