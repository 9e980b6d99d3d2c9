(* Generators for the paper's results tables.

   Each function regenerates one table of the evaluation from fresh
   simulations (Section VIII/IX); `~benches` narrows the benchmark set
   (the artifact's --bench flag), and the bench harness uses the same
   entry points with scaled-down inputs. *)

open Protean_isa
module E = Experiment
module Suite = Protean_workloads.Suite
module Protcc = Protean_protcc.Protcc
module Config = Protean_ooo.Config
module Defense = Protean_defense.Defense
module Twindow = Protean_telemetry.Window

let fmt_norm v = Printf.sprintf "%.3f" v

let filter_benches names benches =
  match names with
  | None -> benches
  | Some ns -> List.filter (fun (b : Suite.benchmark) -> List.mem b.Suite.name ns) benches

(* The (baseline, pass) pairing per class, per Table I/IV/V. *)
let class_rows =
  [
    (Program.Arch, E.cfg_stt, Protcc.P_arch);
    (Program.Cts, E.cfg_spt, Protcc.P_cts);
    (Program.Ct, E.cfg_spt, Protcc.P_ct);
    (Program.Unr, E.cfg_spt_sb, Protcc.P_unr);
  ]

(* ------------------------------------------------------------------ *)
(* Table IV: geomean normalized runtimes on SPEC2017 and PARSEC for    *)
(* all eight PROTEAN single-class configurations and their baselines.  *)
(* ------------------------------------------------------------------ *)

let table_iv ?benches session =
  let spec = filter_benches benches Suite.spec2017 in
  let parsec = filter_benches benches Suite.parsec in
  let geo benches cfg config =
    E.geomean (List.map (fun b -> E.normalized session ~config b cfg) benches)
  in
  Format.printf
    "Table IV: geomean normalized runtime (SPEC2017 P/E-core, PARSEC)@.@.";
  List.iter
    (fun (klass, baseline, pass) ->
      let delay = E.protean_cfg `Delay pass in
      let track = E.protean_cfg `Track pass in
      Format.printf "-- class %s --@." (Program.string_of_klass klass);
      Textplot.table
        ~header:[ ""; baseline.E.label; delay.E.label; track.E.label ]
        [
          [
            "SPEC2017 P-core";
            fmt_norm (geo spec baseline Config.p_core);
            fmt_norm (geo spec delay Config.p_core);
            fmt_norm (geo spec track Config.p_core);
          ];
          [
            "SPEC2017 E-core";
            fmt_norm (geo spec baseline Config.e_core);
            fmt_norm (geo spec delay Config.e_core);
            fmt_norm (geo spec track Config.e_core);
          ];
          [
            "PARSEC";
            fmt_norm (geo parsec baseline Config.p_core);
            fmt_norm (geo parsec delay Config.p_core);
            fmt_norm (geo parsec track Config.p_core);
          ];
        ];
      Format.printf "@.")
    class_rows

(* ------------------------------------------------------------------ *)
(* Table V: per-benchmark normalized runtimes for the single-class     *)
(* suites and multi-class nginx, on a P-core.                          *)
(* ------------------------------------------------------------------ *)

let suite_rows =
  [
    ("ARCH-Wasm", Suite.arch_wasm, E.cfg_stt, Some Protcc.P_arch);
    ("CTS-Crypto", Suite.cts_crypto, E.cfg_spt, Some Protcc.P_cts);
    ("CT-Crypto", Suite.ct_crypto, E.cfg_spt, Some Protcc.P_ct);
    ("UNR-Crypto", Suite.unr_crypto, E.cfg_spt_sb, Some Protcc.P_unr);
    ("Multi-Class Web Server", Suite.nginx, E.cfg_spt_sb, None);
  ]

let protean_cfgs_for pass =
  match pass with
  | Some p -> (E.protean_cfg `Delay p, E.protean_cfg `Track p)
  | None -> (E.protean_multiclass `Delay, E.protean_multiclass `Track)

let table_v ?benches session =
  Format.printf
    "Table V: normalized runtime on single-class and multi-class workloads \
     (P-core)@.@.";
  List.iter
    (fun (suite_name, suite, baseline, pass) ->
      let suite = filter_benches benches suite in
      if suite <> [] then begin
        let delay, track = protean_cfgs_for pass in
        let multiclass = pass = None in
        let rows =
          List.map
            (fun (b : Suite.benchmark) ->
              [
                b.Suite.name;
                fmt_norm (E.normalized session b baseline);
                fmt_norm (E.normalized session ~multiclass b delay);
                fmt_norm (E.normalized session ~multiclass b track);
              ])
            suite
        in
        let geo cfg multiclass =
          E.geomean
            (List.map
               (fun b ->
                 E.normalized session ~multiclass b cfg)
               suite)
        in
        let rows =
          rows
          @ [
              [
                "geomean";
                fmt_norm (geo baseline false);
                fmt_norm (geo delay multiclass);
                fmt_norm (geo track multiclass);
              ];
            ]
        in
        Format.printf "-- %s --@." suite_name;
        Textplot.table
          ~header:[ "benchmark"; baseline.E.label; "PROTEAN-Delay"; "PROTEAN-Track" ]
          rows;
        Format.printf "@."
      end)
    suite_rows

(* ------------------------------------------------------------------ *)
(* Table I: the overhead summary by targeted class.                    *)
(* ------------------------------------------------------------------ *)

let pct v = Printf.sprintf "%.0f%%" ((v -. 1.0) *. 100.0)

let table_i ?benches session =
  Format.printf
    "Table I: runtime overhead of securing each vulnerable-code class with \
     the most performant defense that secures it@.@.";
  let geo_suite suite cfg multiclass =
    let suite = filter_benches benches suite in
    E.geomean (List.map (fun b -> E.normalized session ~multiclass b cfg) suite)
  in
  let rows =
    List.map
      (fun (suite_name, suite, baseline, pass) ->
        let suite' = filter_benches benches suite in
        if suite' = [] then [ suite_name; "-"; "-"; "-" ]
        else
          let delay, track = protean_cfgs_for pass in
          let multiclass = pass = None in
          [
            suite_name;
            pct (geo_suite suite baseline false);
            pct (geo_suite suite delay multiclass);
            pct (geo_suite suite track multiclass);
          ])
      suite_rows
  in
  Textplot.table
    ~header:[ "class"; "best secure baseline"; "PROTEAN-Delay"; "PROTEAN-Track" ]
    rows;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Width sweep: defense stall attribution across issue widths on the   *)
(* structural-port core ([Config.with_width]).                         *)
(* ------------------------------------------------------------------ *)

let width_sweep_widths = [ 1; 2; 4; 6; 8 ]

(* Bench × instrumentation pairs proven in the golden corpus; each
   delay-style cell uses the pass already exercised for it there. *)
let width_sweep_benches =
  [
    ("bearssl", Protcc.P_ct);
    ("hacl.poly1305", Protcc.P_cts);
    ("ossl.bnexp", Protcc.P_unr);
  ]

(* STT needs no instrumentation pass and only bites on workloads with
   tainted speculative transmitters; lbm is the corpus's strongest. *)
let width_sweep_stt_benches = [ "bearssl"; "ossl.bnexp"; "lbm" ]

let width_sweep ?benches ?widths session =
  let widths = Option.value widths ~default:width_sweep_widths in
  let picked =
    match benches with
    | None -> width_sweep_benches
    | Some ns -> List.filter (fun (n, _) -> List.mem n ns) width_sweep_benches
  in
  let picked_stt =
    match benches with
    | None -> width_sweep_stt_benches
    | Some ns -> List.filter (fun n -> List.mem n ns) width_sweep_stt_benches
  in
  Format.printf
    "Width sweep: stall attribution vs issue width (test core rescaled by \
     Config.with_width; structural = no-free-port + CDB-deferral \
     entry-cycles, protection = transmitter + wakeup + resolution \
     entry-cycles; shares are per simulated cycle, geomean runtime is \
     vs unsafe at the same width)@.@.";
  let pct num den =
    if den = 0 then "0.00%"
    else Printf.sprintf "%.2f%%" (100.0 *. float_of_int num /. float_of_int den)
  in
  let sweep label cells =
    let rows =
      List.map
        (fun w ->
          let config = Config.with_width w Config.test_core in
          let cycles = ref 0 in
          let structural = ref 0 in
          let protection = ref 0 in
          let norms =
            List.map
              (fun (name, dcfg) ->
                let b = Suite.find name in
                let r = E.run session (E.spec ~config b dcfg) in
                let u = E.run session (E.spec ~config b E.cfg_unsafe) in
                List.iter
                  (fun (st : Protean_ooo.Stats.t) ->
                    let open Protean_ooo.Stats in
                    cycles := !cycles + st.cycles;
                    structural :=
                      !structural + st.port_structural_stall_cycles
                      + st.wb_queue_stall_cycles;
                    protection :=
                      !protection + st.transmitter_stall_cycles
                      + st.wakeup_delay_cycles + st.resolution_delay_cycles)
                  r.E.stats;
                r.E.cycles /. u.E.cycles)
              cells
          in
          [
            string_of_int w;
            fmt_norm (E.geomean norms);
            pct !protection !cycles;
            pct !structural !cycles;
            string_of_int !protection;
            string_of_int !structural;
          ])
        widths
    in
    Format.printf "-- %s --@." label;
    Textplot.table
      ~header:
        [
          "width"; "norm runtime"; "prot-stall share"; "struct-stall share";
          "prot cycles"; "struct cycles";
        ]
      rows;
    Format.printf "@."
  in
  let with_pass mech = List.map (fun (n, p) -> (n, E.protean_cfg mech p)) picked in
  sweep "PROTEAN-Delay" (with_pass `Delay);
  sweep "PROTEAN-Track" (with_pass `Track);
  sweep "STT" (List.map (fun n -> (n, E.cfg_stt)) picked_stt)

(* ------------------------------------------------------------------ *)
(* Table II: AMuLeT* contract violations.                              *)
(* ------------------------------------------------------------------ *)

module Fuzz = Protean_amulet.Fuzz
module Gen = Protean_amulet.Gen

type fuzz_row = {
  contract : string;
  instrumentation : string;
  campaign : Fuzz.campaign;
}

let fuzz_rows ~paranoid_sched ~programs ~inputs =
  let with_adv c = { Fuzz.default_campaign with Fuzz.programs; inputs_per_program = inputs; seed = 7; adversary = c; paranoid_sched } in
  List.concat_map
    (fun adversary ->
      [
        {
          contract = "UNPROT-SEQ";
          instrumentation = "ProtCC-RAND";
          campaign =
            {
              (with_adv adversary) with
              Fuzz.mode_of = Fuzz.unprot_seq;
              (* ARCH-style generation: architecturally secret-free, so
                 the random PROT prefixes do not expose secret data and
                 test pairs stay contract-equivalent — the transient
                 gadget leaks are what the contract must catch. *)
              gen_klass = Gen.G_arch;
              instrumentation = Fuzz.I_pass (Protcc.P_rand (11, 0.5));
            };
        };
        {
          contract = "ARCH-SEQ";
          instrumentation = "ProtCC-ARCH";
          campaign =
            {
              (with_adv adversary) with
              Fuzz.mode_of = Fuzz.arch_seq;
              gen_klass = Gen.G_arch;
              instrumentation = Fuzz.I_none;
            };
        };
        {
          contract = "CTS-SEQ";
          instrumentation = "ProtCC-CTS";
          campaign =
            {
              (with_adv adversary) with
              Fuzz.mode_of = Fuzz.cts_seq;
              gen_klass = Gen.G_ct;
              instrumentation = Fuzz.I_pass Protcc.P_cts;
            };
        };
        {
          contract = "CT-SEQ";
          instrumentation = "ProtCC-CT";
          campaign =
            {
              (with_adv adversary) with
              Fuzz.mode_of = Fuzz.ct_seq;
              gen_klass = Gen.G_ct;
              instrumentation = Fuzz.I_pass Protcc.P_ct;
            };
        };
        {
          contract = "CT-SEQ";
          instrumentation = "ProtCC-UNR";
          campaign =
            {
              (with_adv adversary) with
              Fuzz.mode_of = Fuzz.ct_seq;
              gen_klass = Gen.G_unr;
              instrumentation = Fuzz.I_pass Protcc.P_unr;
            };
        };
      ])
    [ Fuzz.Cache_tlb; Fuzz.Timing ]

(* Merge the two adversaries' outcomes per (contract, pass) row, like the
   paper's Table II. *)
let table_ii ?(jobs = 1) ?(paranoid_sched = false) ?(programs = 10)
    ?(inputs = 4) () =
  Format.printf
    "Table II: AMuLeT*-detected contract violations (true positives, false \
     positives in parentheses)@.@.";
  let rows = fuzz_rows ~paranoid_sched ~programs ~inputs in
  let defenses =
    [ ("Unsafe", Defense.unsafe); ("ProtDelay", Defense.prot_delay); ("ProtTrack", Defense.prot_track) ]
  in
  (* Every (row, defense) campaign is independent: run them on [jobs]
     domains, then fold both adversaries per (contract,instrumentation). *)
  let runs =
    List.concat_map (fun (name, d) -> List.map (fun r -> (name, r, d)) rows) defenses
  in
  let outcomes =
    Parallel.map ~jobs
      (Array.of_list (List.map (fun (_, r, d) () -> Fuzz.run r.campaign d) runs))
  in
  let results = List.combine runs (Array.to_list outcomes) in
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.contract, r.instrumentation)) rows)
  in
  let cells =
    List.map
      (fun (contract, instr) ->
        let per_defense =
          List.map
            (fun (name, _) ->
              let totals =
                List.filter_map
                  (fun ((n, r, _), o) ->
                    if n = name && r.contract = contract && r.instrumentation = instr
                    then Some o
                    else None)
                  results
              in
              let v = List.fold_left (fun a o -> a + o.Fuzz.violations) 0 totals in
              let fp = List.fold_left (fun a o -> a + o.Fuzz.false_positives) 0 totals in
              Printf.sprintf "%d (%d)" v fp)
            defenses
        in
        (contract, instr, per_defense))
      keys
  in
  Textplot.table
    ~header:([ "contract"; "instrumentation" ] @ List.map fst defenses)
    (List.map (fun (c, i, cs) -> c :: i :: cs) cells);
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Over-protection audit                                               *)
(* ------------------------------------------------------------------ *)

(* Interventions charged to windows that never leaked (resolved on the
   correct path, flushed before retiring anything, or mispredicted but
   with no tainted transmitter under them) ÷ all interventions, per
   defense × benchmark.  A high ratio means the defense spends most of
   its cost guarding speculation that could not have leaked — the
   headroom a programmable policy can reclaim.  Needs the
   speculation-window ledger: the CLI runs this target's session with
   the [window] option on, so cached cells carry their window
   counters. *)
let over_protection ?benches session =
  Format.printf
    "Over-protection audit: defense interventions charged to \
     never-leaking speculation windows (benign) vs windows that leaked \
     (mispredicted with a tainted transmitter); ratio = benign / total, \
     '-' when the defense never intervened@.@.";
  (* Per-defense cell lists, mirroring the width sweep's pairings: the
     delay mechanism bites where ProtCC marked transmitters (its proven
     (bench, pass) pairs), STT where tainted speculative transmitters
     exist (lbm is the corpus's strongest); unsafe runs the union as the
     zero-intervention control. *)
  let keep cells =
    match benches with
    | None -> cells
    | Some ns -> List.filter (fun (n, _) -> List.mem n ns) cells
  in
  let delay_cells =
    List.map (fun (n, p) -> (n, E.protean_cfg `Delay p)) width_sweep_benches
  in
  let stt_cells =
    List.map (fun n -> (n, E.cfg_stt)) width_sweep_stt_benches
  in
  let unsafe_cells =
    List.map (fun (n, _) -> (n, E.cfg_unsafe))
      (List.sort_uniq compare
         (List.map (fun (n, _) -> (n, ())) (delay_cells @ stt_cells)))
  in
  let defenses =
    [
      ("unsafe", keep unsafe_cells);
      ("STT", keep stt_cells);
      ("PROT-Delay", keep delay_cells);
    ]
  in
  let rows =
    List.concat_map
      (fun (dlabel, cells) ->
        let total = ref [] in
        let cells =
          List.map
            (fun (name, dcfg) ->
              let b = Suite.find name in
              let r = E.run session (E.spec b dcfg) in
              total := Twindow.merge_counters !total r.E.window;
              let c k = Twindow.counter k r.E.window in
              let benign = c "interventions_benign" in
              let leaky = c "interventions_leaky" in
              [
                dlabel;
                name;
                string_of_int (c "windows_opened");
                string_of_int (c "windows_leaky");
                string_of_int benign;
                string_of_int leaky;
                (match Twindow.over_protection r.E.window with
                | None -> "-"
                | Some ratio -> fmt_norm ratio);
              ])
            cells
        in
        let c k = Twindow.counter k !total in
        cells
        @ [
            [
              dlabel;
              "TOTAL";
              string_of_int (c "windows_opened");
              string_of_int (c "windows_leaky");
              string_of_int (c "interventions_benign");
              string_of_int (c "interventions_leaky");
              (match Twindow.over_protection !total with
              | None -> "-"
              | Some ratio -> fmt_norm ratio);
            ];
          ])
      defenses
  in
  Textplot.table
    ~header:
      [
        "defense"; "bench"; "windows"; "leaky"; "interv benign";
        "interv leaky"; "over-protection";
      ]
    rows;
  Format.printf "@."
