(** The AMuLeT* fuzzing loop (Section VII-B): relational testing of
    microarchitectures against hardware-software security contracts.

    For each random program and input pair: run the SEQ contract executor
    on both inputs and skip the pair unless the traces are equal; run the
    hardware configuration on both inputs recording attacker-visible
    events; report a violation when the adversary's views differ;
    classify it as a false positive when the committed instruction
    streams differ (sequential, not transient, divergence — the automated
    post-processing filter of Section VII-B1e).

    Long campaigns additionally get a robustness layer: a per-program
    exception barrier with retry-once-then-skip ([run_resilient]),
    watchdog-enforced per-simulation cycle budgets, counterexample
    shrinking, a cell codec a checkpoint resumes through, and a
    fault-injection self-test
    ([self_test]) that verifies the campaign would actually flag a broken
    defense. *)

open Protean_isa
open Protean_arch
open Protean_ooo

type adversary =
  | Cache_tlb  (** AMuLeT's default: data-cache and TLB tag changes *)
  | Timing
      (** AMuLeT*'s addition: per-stage cycles of committed instructions,
          squash timing and divider activity — what an SMT receiver sees *)

val adversary_name : adversary -> string

type instrumentation = I_none | I_pass of Protean_protcc.Protcc.pass

type campaign = {
  seed : int;
  programs : int;
  inputs_per_program : int;
  gen_klass : Gen.klass_gen;
  mode_of : Observer.typing -> Observer.mode;
      (** contract observer mode (may consume the ProtCC-CTS typing) *)
  instrumentation : instrumentation;
  adversary : adversary;
  config : Config.t;
  squash_bug : bool;
  spec_model : Policy.spec_model;
  timeout_cycles : int option;
      (** per-simulation watchdog budget: a hardware run exceeding it
          raises {!Pipeline.Sim_fault}, which {!run_resilient} turns into
          a reported per-program skip *)
  check_certs : bool;
      (** audit each instrumented program's protection certificates
          against the SEQ executor on the campaign's own input pairs —
          every campaign doubles as a translation-validation soundness
          audit of ProtCC *)
  cert_fault : Protean_defense.Fault_inject.cert_mode option;
      (** pass-mutation injection: compile results (binary and/or
          certificates) are mutated as by a broken pass; a campaign with
          [check_certs] must then report certificate violations *)
  paranoid_sched : bool;
      (** every hardware run cross-checks its scheduler indexes each
          cycle on the spinning machine ([Invariants.attach_sched]) *)
}

val default_campaign : campaign

type outcome = {
  mutable tests : int;  (** contract-equivalent pairs compared *)
  mutable skipped : int;  (** pairs filtered by contract-equivalence *)
  mutable violations : int;
  mutable false_positives : int;
  mutable example : (int * int) option;
      (** (program seed, input index) of the first violation *)
  mutable certs_checked : int;  (** certificates audited ([check_certs]) *)
  mutable cert_claims : int;  (** individual (pc, register) claims *)
  mutable cert_violations : int;
  mutable cert_example : string option;
      (** first certificate violation, rendered *)
}

val program_seed : campaign -> int -> int
(** Generator seed of the campaign's [index]-th program. *)

val run : campaign -> Protean_defense.Defense.t -> outcome
(** The plain campaign loop: no barrier, first simulator fault aborts. *)

val fresh_outcome : unit -> outcome

val merge_outcome : into:outcome -> outcome -> unit
(** Add [b]'s counters into [into]; keeps [into]'s violation example
    when it already has one (so index-order merging preserves the
    serial campaign's first example). *)

val generate_program : campaign -> int -> Program.t
(** The campaign's [index]-th random program (before instrumentation). *)

(** {1 Campaign cells}

    A campaign decomposes into one independent cell per program
    (per-program seeded RNG).  Every driver computes cells its own way
    — serially ({!run_resilient}), on domains, in shard worker processes
    or in an earlier run a checkpoint resumes, the last two through the
    cell codec — and hands them to {!finish}. *)

type cell = {
  c_index : int;  (** program index in the campaign *)
  c_outcome : outcome;  (** empty when the program was skipped *)
  c_skip : string option;
      (** why the program was skipped after faulting on both attempts *)
}

val test_cell :
  ?cert_poison:bool ->
  ?program:Program.t ->
  campaign ->
  Protean_defense.Defense.t ->
  int ->
  cell
(** Test every input pair of program [index] (or of [program], which
    overrides the generated one) under the exception barrier: a fault
    (watchdog, invariant failure, any exception) is retried once, then
    the program is skipped with the rendered reason.  [cert_poison]
    (shard workers only) escalates a refuted certificate to a raised
    {!Protean_protcc.Certify.Cert_violation}, so the supervisor isolates
    the cell as a structured fault. *)

val cell_to_json : campaign -> cell -> Protean_telemetry.Json.t
(** The cell as a shard frame or checkpoint payload (its index rides
    alongside).
    Certificate counters are encoded only when the campaign audits
    certificates. *)

val cell_of_json : int -> Protean_telemetry.Json.t -> cell
(** Decode the payload of cell [index]; raises
    {!Protean_telemetry.Json.Parse} on a malformed payload. *)

type shrunk = {
  sh_program : Program.t;  (** instrumented, shrunk *)
  sh_original_insns : int;
  sh_insns : int;  (** live (non-nop, pre-halt) instructions left *)
  sh_attempts : int;  (** candidate replays spent *)
  sh_verified : bool;  (** the shrunk program still violates *)
}

(** {1 Crash-resilient campaigns} *)

type skip = {
  sk_index : int;  (** program index in the campaign *)
  sk_seed : int;  (** its generator seed *)
  sk_reason : string;
}

type report = {
  r_outcome : outcome;
  r_completed : int;  (** programs fully tested *)
  r_skipped : skip list;  (** programs dropped after retry, oldest first *)
  r_counterexample : shrunk option;  (** shrunk first violation *)
  r_attribution : Protean_telemetry.Window.attribution option;
      (** the first violation replayed with a full-mode
          speculation-window ledger ({!Protean_ooo.Spec_window}): the
          leaking transmitter pc, the access its tainted operand derived
          from, the trigger window (id, pc, nesting depth), and a
          heuristic gadget family — "v1" (conditional trigger), "v2"
          (indirect branch), "rsb" (return misprediction), "v4" (global
          transmitter divergence driven by a memory-order violation) or
          "unknown".  Replay faults degrade to [None]. *)
}

val finish :
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?program:(int -> Program.t option) ->
  campaign ->
  Protean_defense.Defense.t ->
  cell list ->
  report
(** The one campaign merge, whichever way the cells were computed: merge
    [cells] in index order, list the skips, then replay the first cell
    with a violation example to capture its witness, which is shrunk
    ([shrink], default true) and attributed.  [program] overrides the
    replayed program's code (default: the generated one).  A campaign
    without violations replays nothing. *)

val run_resilient :
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?program_of:(int -> Program.t option) ->
  campaign ->
  Protean_defense.Defense.t ->
  report
(** The serial driver: {!test_cell} for each program in index order,
    then {!finish}.  [program_of] overrides the generated program at
    selected indices (harness self-tests); it is asked once per program,
    in index order, as the program starts. *)

(** {1 Fuzzer self-test via fault injection} *)

type gap = {
  g_mode : Protean_defense.Fault_inject.mode;
  g_tests : int;
  g_violations : int;
  g_detected : bool;  (** the campaign flagged the injected fault *)
}

val self_test :
  ?modes:Protean_defense.Fault_inject.mode list ->
  campaign ->
  Protean_defense.Defense.t ->
  gap list
(** Inject each fault mode into the defense and rerun the campaign; a
    mode whose campaign reports no violation is a detector gap. *)

val gaps : gap list -> gap list
(** The undetected subset of a {!self_test} result. *)

val campaign_for :
  ?seed:int -> programs:int -> inputs:int -> string -> campaign
(** Campaign skeleton for a named contract ("arch", "cts", "ct",
    "unprot"): observer mode, generator class and ProtCC instrumentation
    set consistently.  Raises [Invalid_argument] on unknown names. *)

val canonical_pairings :
  (Protean_defense.Fault_inject.mode * string * string) list
(** For each fault mode, a (defense id, contract) pairing in which the
    faulted layer is load-bearing, so the fault is observable.  Layered
    defenses mask single-layer faults (e.g. ProtTrack's taint layer
    compensates for dropped protection bits), so self-testing all modes
    against one defense reports spurious gaps. *)

val self_test_pairing :
  ?seed:int ->
  ?programs:int ->
  ?inputs:int ->
  ?timeout_cycles:int ->
  ?paranoid_sched:bool ->
  Protean_defense.Fault_inject.mode * string * string ->
  string * string * gap
(** One {!canonical_pairings} row through {!self_test}: (defense id,
    contract, gap). *)

val self_test_matrix :
  ?seed:int ->
  ?programs:int ->
  ?inputs:int ->
  ?timeout_cycles:int ->
  unit ->
  (string * string * gap) list
(** Run {!self_test} over {!canonical_pairings}; every returned gap
    should have [g_detected = true] for a healthy fuzzer.  Returns
    (defense id, contract, gap) per mode. *)

(** Contract shorthands (observer-mode constructors). *)

val arch_seq : Observer.typing -> Observer.mode
val ct_seq : Observer.typing -> Observer.mode
val cts_seq : Observer.typing -> Observer.mode
val unprot_seq : Observer.typing -> Observer.mode
