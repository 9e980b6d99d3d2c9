(* The certified CT fuzz campaign, in process: ProtCC-CT programs,
   PROTEAN-Track on the test core, the cache+TLB adversary, five inputs
   per program and the certificate audit on.

   [untraced] runs the campaign through [Fuzz.run_resilient], the
   driver protean-fuzz runs, timing each program.  The defense is
   wrapped only to read every simulation's cycle count at the end; the
   wrapper adds one closure call per committed instruction.  [traced]
   replays the same programs through the
   layers' public calls, the way [Fuzz.test_program] makes them, with a
   span around each. *)

module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen
module Protcc = Protean_protcc.Protcc
module Certify = Protean_protcc.Certify
module Contract = Protean_arch.Contract
module Defense = Protean_defense.Defense
module Pipeline = Protean_ooo.Pipeline
module Policy = Protean_ooo.Policy
module Hw_trace = Protean_ooo.Hw_trace
module Stats = Protean_ooo.Stats
module J = Protean_harness.Shard.Json

let inputs_per_program = 5
let defense = Defense.prot_track

let campaign ~seed ~programs =
  {
    (Fuzz.campaign_for ~seed ~programs ~inputs:inputs_per_program "ct") with
    Fuzz.adversary = Fuzz.Cache_tlb;
    check_certs = true;
  }

let outcome_fields (o : Fuzz.outcome) =
  [
    ("tests", J.Int o.Fuzz.tests);
    ("skipped", J.Int o.Fuzz.skipped);
    ("violations", J.Int o.Fuzz.violations);
    ("false_positives", J.Int o.Fuzz.false_positives);
    ("certs_checked", J.Int o.Fuzz.certs_checked);
    ("cert_claims", J.Int o.Fuzz.cert_claims);
    ("cert_violations", J.Int o.Fuzz.cert_violations);
  ]

let sum_cycles stats =
  List.fold_left (fun acc (s : Stats.t) -> acc + s.Stats.cycles) 0 stats

(* PROTEAN-Track, keeping a handle on each simulation's statistics. *)
let watched stats =
  {
    defense with
    Defense.make =
      (fun () ->
        let p = defense.Defense.make () in
        let seen = ref false in
        {
          p with
          Policy.on_commit =
            (fun api e ->
              if not !seen then begin
                seen := true;
                stats := api.Policy.stats :: !stats
              end;
              p.Policy.on_commit api e);
        });
  }

(* [Fuzz.run_resilient] asks [program_of] for each program as it starts
   it, so a program's time runs from that call to the next one, or to
   the end of the campaign for the last. *)
let campaign_pass c ~programs =
  let stats = ref [] in
  let starts = ref [] in
  let program_of _ =
    starts := Unix.gettimeofday () :: !starts;
    None
  in
  let r = Fuzz.run_resilient ~shrink:false ~program_of c (watched stats) in
  let _, durations =
    List.fold_left
      (fun (t1, acc) t0 -> (t0, (t1 -. t0) :: acc))
      (Unix.gettimeofday (), [])
      !starts
  in
  [
    ("programs", J.Int programs);
    ("dropped", J.Int (List.length r.Fuzz.r_skipped));
    ("hw_runs", J.Int (List.length !stats));
    ("sim_cycles", J.Int (sum_cycles !stats));
    ("program_s", J.List (List.map (fun d -> J.Float d) durations));
  ]
  @ outcome_fields r.Fuzz.r_outcome

let untraced ~seed ~programs ~setup_only =
  let c = campaign ~seed ~programs in
  let t_first_op = Unix.gettimeofday () in
  ("t_first_op", J.Float t_first_op)
  :: (if setup_only then [] else campaign_pass c ~programs)

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

let committed_stream trace =
  List.filter_map
    (function Hw_trace.E_timing { pc; _ } -> Some pc | _ -> None)
    (Hw_trace.all trace)

let traced sp ~seed ~programs =
  let c = campaign ~seed ~programs in
  let pass =
    match c.Fuzz.instrumentation with
    | Fuzz.I_pass p -> p
    | Fuzz.I_none -> invalid_arg "the CT campaign compiles with ProtCC"
  in
  let out = Fuzz.fresh_outcome () in
  let contract_runs = ref 0 and seq_steps = ref 0 in
  let hw_stats = ref [] in
  let watchdog =
    { Pipeline.default_watchdog with Pipeline.budget = c.Fuzz.timeout_cycles }
  in
  let contract mode program overlays =
    let r =
      Spans.run sp "arch.contract" (fun () ->
          Contract.run ~fuel:50_000 mode program ~overlays)
    in
    incr contract_runs;
    seq_steps := !seq_steps + r.Contract.steps;
    r
  in
  let hardware program overlays =
    let r =
      Spans.run sp ~args:[ ("defense", defense.Defense.id) ] "ooo.run"
        (fun () ->
          Pipeline.run ~trace:true ~squash_bug:c.Fuzz.squash_bug
            ~spec_model:c.Fuzz.spec_model ~watchdog ~fuel:400_000 c.Fuzz.config
            (defense.Defense.make ()) program ~overlays)
    in
    hw_stats := r.Pipeline.stats :: !hw_stats;
    r
  in
  let view (r : Pipeline.result) = Hw_trace.cache_tlb_view r.Pipeline.trace in
  let test_pair program mode ~public ~secret_a ~secret_b =
    let oa = [ public; secret_a ] and ob = [ public; secret_b ] in
    let ca = contract mode program oa in
    let cb = contract mode program ob in
    if
      ca.Contract.exhausted || cb.Contract.exhausted
      || not (Contract.traces_equal ca.Contract.trace cb.Contract.trace)
    then out.Fuzz.skipped <- out.Fuzz.skipped + 1
    else begin
      let ha = hardware program oa in
      let hb = hardware program ob in
      out.Fuzz.tests <- out.Fuzz.tests + 1;
      if not (Hw_trace.view_equal (view ha) (view hb)) then
        if
          committed_stream ha.Pipeline.trace <> committed_stream hb.Pipeline.trace
        then out.Fuzz.false_positives <- out.Fuzz.false_positives + 1
        else out.Fuzz.violations <- out.Fuzz.violations + 1
    end
  in
  for index = 0 to programs - 1 do
    Spans.run sp ~args:[ ("index", string_of_int index) ] "amulet.program"
      (fun () ->
        let original =
          Spans.run sp "amulet.gen" (fun () -> Fuzz.generate_program c index)
        in
        let res : Protcc.result =
          Spans.run sp "protcc.instrument" (fun () ->
              Protcc.instrument ~pass_override:pass original)
        in
        (* The input draws of [Fuzz.test_program], in its order. *)
        let rng = Random.State.make [| Fuzz.program_seed c index; 0xfeed |] in
        let public = Gen.random_public rng in
        let base = Gen.random_secret rng in
        let others =
          List.init c.Fuzz.inputs_per_program (fun _ -> Gen.random_secret rng)
        in
        let audit =
          Spans.run sp "protcc.certify" (fun () ->
              Certify.audit
                ~inputs:
                  (List.map (fun o -> ([ public; base ], [ public; o ])) others)
                ~original res)
        in
        out.Fuzz.certs_checked <- out.Fuzz.certs_checked + audit.Certify.checked;
        out.Fuzz.cert_claims <- out.Fuzz.cert_claims + audit.Certify.claims;
        out.Fuzz.cert_violations <-
          out.Fuzz.cert_violations + List.length audit.Certify.violations;
        let mode = c.Fuzz.mode_of res.Protcc.typing in
        List.iter
          (fun other ->
            test_pair res.Protcc.program mode ~public ~secret_a:base
              ~secret_b:other)
          others)
  done;
  let total field =
    List.fold_left (fun acc s -> acc + field s) 0 !hw_stats
  in
  [
    ("programs", J.Int programs);
    ("dropped", J.Int 0);
    ("hw_runs", J.Int (List.length !hw_stats));
    ("sim_cycles", J.Int (sum_cycles !hw_stats));
    ("contract_runs", J.Int !contract_runs);
    ("seq_steps", J.Int !seq_steps);
    ( "per_defense",
      J.Obj
        [
          ( defense.Defense.id,
            J.Obj
              [
                ("s", J.Float (Spans.total_s sp "ooo.run"));
                ("cycles", J.Int (sum_cycles !hw_stats));
              ] );
        ] );
    ( "stats",
      J.Obj
        [
          ("cycles", J.Int (total Stats.(fun s -> s.cycles)));
          ("committed", J.Int (total Stats.(fun s -> s.committed)));
          ("fetched", J.Int (total Stats.(fun s -> s.fetched)));
          ("squashed_insns", J.Int (total Stats.(fun s -> s.squashed_insns)));
          ("skipped_cycles", J.Int (total Stats.(fun s -> s.skipped_cycles)));
          ("l1d_accesses", J.Int (total Stats.(fun s -> s.l1d_accesses)));
          ("l1d_misses", J.Int (total Stats.(fun s -> s.l1d_misses)));
        ] );
  ]
  @ outcome_fields out
