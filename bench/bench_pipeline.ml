(* Pipeline micro-benchmark and CI guard: the hot-loop cost model of the
   stage-module pipeline, checked against the golden corpus and the
   checked-in allocation ceiling.

     dune exec bench/bench_pipeline.exe -- --smoke  # writes BENCH_pipeline.json

   It replays a reduced prefix of the golden corpus against
   test/golden_pipeline.expected (bit-identity of the fast scheduler),
   then measures the UNR workload (ossl.bnexp compiled with ProtCC-UNR,
   ProtTrack defense) on the P-core and on its 4-wide ported variant
   with pipeline construction excluded: loop-only cycles/second, minor
   GC words allocated per simulated cycle, the per-stage wall-clock
   breakdown from the [Profile] observer and the overhead the profiler
   itself adds (median and quartiles over interleaved pairs).  It fails
   if minor words per cycle exceed the ceiling in
   bench/hotloop_ceiling.txt on either core (an allocation regression in
   the cycle loop breaks the build before it breaks throughput), if
   event-driven skip-ahead skips no cycle, or if the speculation-window
   ledger is inconsistent.  End-to-end and per-layer timings of whole
   grids and campaigns are perfbench's (perfbench/README.md). *)

module Suite = Protean_workloads.Suite
module Protcc = Protean_protcc.Protcc
module Defense = Protean_defense.Defense
module Config = Protean_ooo.Config
module Pipeline = Protean_ooo.Pipeline
module Profile = Protean_ooo.Profile
module Stats = Protean_ooo.Stats
module Golden = Protean_harness.Golden
module Report = Protean_harness.Report
module Spec_window = Protean_ooo.Spec_window
module Json = Protean_telemetry.Json

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let fuel = 30_000_000

let unr_workload () =
  let b = Suite.find "ossl.bnexp" in
  match b.Suite.kind with
  | Suite.Single f ->
      (Protcc.instrument ~pass_override:Protcc.P_unr (f ())).Protcc.program
  | Suite.Multi _ -> assert false

(* Drive a pre-built pipeline to completion: the loop the interest mask,
   the O(active) scheduler, event-driven skip-ahead and the allocation
   diet optimize.  [~until] opts the stepper into skip-ahead, exactly as
   [Pipeline.run] does. *)
let drive t =
  while (not (Pipeline.is_done t)) && t.Protean_ooo.Pipeline_state.cycle < fuel do
    Pipeline.step ~until:fuel t
  done

(* Interleaved plain/profiled drive pairs behind the profiler-overhead
   figure. *)
let overhead_pairs = 21

type hotloop = {
  hl_cycles : int;
  hl_loop_wall : float; (* step loop only, construction excluded *)
  hl_minor_words_per_cycle : float;
  hl_profiler_overhead : float * float * float;
      (* median, q1, q3 of profiled / plain - 1 over interleaved pairs *)
  hl_stages : (string * float * float) list; (* name, seconds, share *)
}

let bench_hotloop ?(config = Config.p_core) ?(label = "hotloop") program =
  let d = Defense.find "prot-track" in
  let make () =
    Pipeline.create config (d.Defense.make ()) program ~overlays:[]
  in
  (* Warm-up: enough drives to fault in code paths, size the minor heap
     and settle branch predictors — one run lasts ~10 ms, so a handful
     of milliseconds-cheap repetitions is what moves the best case from
     "cold" to "steady state". *)
  for _ = 1 to 20 do
    drive (make ())
  done;
  (* Loop-only wall clock and allocation rate.  Gc.quick_stat reads the
     allocation pointer without walking the heap, so the probe itself is
     cheap and allocation-free.  The wall clock is the best of a hundred
     runs (fresh pipeline each): a ~10 ms run on a shared runner is
     hostage to scheduler noise, so the minimum is the honest
     steady-state figure. *)
  let t = make () in
  (* [Gc.minor_words] reads the allocation pointer exactly; the
     [Gc.quick_stat] counters only refresh at collection boundaries, so
     with the tuned (large) nursery a whole run can fit between
     collections and quick_stat deltas would under- or over-count. *)
  let g0 = Gc.minor_words () in
  let (), w0 = timed (fun () -> drive t) in
  let g1 = Gc.minor_words () in
  let loop_wall =
    List.fold_left min w0
      (List.init 99 (fun _ ->
           let t = make () in
           snd (timed (fun () -> drive t))))
  in
  let cycles = t.Protean_ooo.Pipeline_state.cycle in
  let mwpc = (g1 -. g0) /. float_of_int cycles in
  (* Profiled runs: per-stage breakdown (the profiler accumulates across
     runs and [stage_breakdown] normalizes to shares), and the cost of
     profiling.  That cost is measured in pairs: a plain and a profiled
     drive back to back, alternating which goes first, so both halves
     of a pair see the same host; the figure is the median of the
     per-pair ratios, with their quartiles as its spread. *)
  let p = Profile.create () in
  let drive_wall ~profiled =
    let t = make () in
    if profiled then Profile.attach p t;
    snd (timed (fun () -> drive t))
  in
  let ratios =
    List.init overhead_pairs (fun i ->
        let plain, profiled =
          if i mod 2 = 0 then
            let plain = drive_wall ~profiled:false in
            (plain, drive_wall ~profiled:true)
          else
            let profiled = drive_wall ~profiled:true in
            (drive_wall ~profiled:false, profiled)
        in
        (profiled /. plain) -. 1.)
    |> List.sort compare |> Array.of_list
  in
  let quantile q = ratios.(int_of_float (q *. float (overhead_pairs - 1))) in
  let overhead = (quantile 0.5, quantile 0.25, quantile 0.75) in
  let median, q1, q3 = overhead in
  Printf.printf
    "%s: %d cycles in %.4fs loop-only (%.0f cycles/s), %.0f minor words/cycle\n%!"
    label cycles loop_wall
    (float_of_int cycles /. loop_wall)
    mwpc;
  List.iter
    (fun (name, s, share) ->
      Printf.printf "%s:   %-10s %.4fs (%.0f%%)\n%!" label name s (share *. 100.))
    (Profile.stage_breakdown p);
  Printf.printf
    "%s: profiler overhead %.0f%% [%.0f%%, %.0f%%] over %d pairs\n%!" label
    (median *. 100.) (q1 *. 100.) (q3 *. 100.) overhead_pairs;
  {
    hl_cycles = cycles;
    hl_loop_wall = loop_wall;
    hl_minor_words_per_cycle = mwpc;
    hl_profiler_overhead = overhead;
    hl_stages = Profile.stage_breakdown p;
  }

(* The guard replays the first [smoke_cells] golden cells serially and
   checks them against the recorded expectation. *)
let smoke_cells = 10

let find_file candidates =
  try List.find Sys.file_exists candidates
  with Not_found ->
    failwith ("smoke: none of " ^ String.concat ", " candidates ^ " found")

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let smoke () =
  let expected =
    take smoke_cells
      (read_lines
         (find_file
            [ "test/golden_pipeline.expected"; "golden_pipeline.expected" ]))
  in
  let actual = List.map Golden.run_cell (take smoke_cells Golden.corpus) in
  List.iteri
    (fun i (e, a) ->
      if e <> a then (
        Printf.eprintf "smoke: cell %d diverged\n  expected %s\n  actual   %s\n"
          i e a;
        exit 1))
    (List.combine expected actual);
  Printf.printf "smoke: %d golden cells bit-identical\n%!" smoke_cells;
  let ceiling =
    float_of_string
      (String.trim
         (String.concat "\n"
            (read_lines
               (find_file
                  [ "bench/hotloop_ceiling.txt"; "hotloop_ceiling.txt" ]))))
  in
  let program = unr_workload () in
  let hl = bench_hotloop program in
  if hl.hl_minor_words_per_cycle > ceiling then (
    Printf.eprintf
      "smoke: allocation regression: %.1f minor words/cycle > ceiling %.1f\n"
      hl.hl_minor_words_per_cycle ceiling;
    exit 1);
  Printf.printf "smoke: %.1f minor words/cycle within ceiling %.1f\n%!"
    hl.hl_minor_words_per_cycle ceiling;
  (* The structural port/writeback model only runs on [Config.ports]
     configs; measure its loop so a per-issue regression in port binding
     or CDB arbitration is visible.  The allocation diet must hold there
     too: port binding is pure array scans, so the ported loop gets the
     same ceiling as the port-free one. *)
  let hp =
    bench_hotloop
      ~config:(Config.with_width 4 Config.p_core)
      ~label:"hotloop-ports" program
  in
  if hp.hl_minor_words_per_cycle > ceiling then (
    Printf.eprintf
      "smoke: ported-core allocation regression: %.1f minor words/cycle > \
       ceiling %.1f\n"
      hp.hl_minor_words_per_cycle ceiling;
    exit 1);
  Printf.printf
    "smoke: ported core (w4) %.1f minor words/cycle within ceiling %.1f \
     (throughput %.2fx of port-free loop)\n%!"
    hp.hl_minor_words_per_cycle ceiling
    (float_of_int hp.hl_cycles /. hp.hl_loop_wall
    /. (float_of_int hl.hl_cycles /. hl.hl_loop_wall));
  (* Scheduler + ledger gates on the same workload, instrumented once:
     event-driven skip-ahead must actually be skipping idle cycles (the
     source stat of protean_cycles_skipped_total), and an attached
     speculation-window ledger must observe the speculation this
     workload is known to have — a silently dead hook chain would zero
     the window metric families and the over-protection audit without
     failing any bit-identity check. *)
  let d = Defense.find "prot-track" in
  let t =
    Pipeline.create Config.p_core (d.Defense.make ()) program ~overlays:[]
  in
  let led = Spec_window.attach t in
  drive t;
  Spec_window.detach t led;
  let skipped = t.Protean_ooo.Pipeline_state.stats.Stats.skipped_cycles in
  if skipped <= 0 then (
    Printf.eprintf
      "smoke: protean_cycles_skipped_total source is 0: event-driven \
       skip-ahead is not engaging\n";
    exit 1);
  let wc = Spec_window.counters led in
  let wcount name =
    match List.assoc_opt name wc with Some n -> n | None -> 0
  in
  let opened = wcount "windows_opened" in
  let closed =
    wcount "windows_resolved" + wcount "windows_mispredicted"
    + wcount "windows_flushed" + wcount "windows_unclosed"
  in
  if opened <= 0 || closed <> opened then (
    Printf.eprintf
      "smoke: speculation-window ledger inconsistent: opened %d, closed \
       (resolved+mispredicted+flushed+unclosed) %d\n"
      opened closed;
    exit 1);
  Printf.printf
    "smoke: skip-ahead skipped %d cycles; ledger saw %d windows (%d \
     mispredicted, %d interventions)\n%!"
    skipped opened
    (wcount "windows_mispredicted")
    (wcount "interventions_leaky" + wcount "interventions_benign");
  (* Record the measurements, one top-level member a line.  The build
     info (the `protean_build_info` labels) names the host, compiler,
     source revision and active escape hatches behind the numbers. *)
  let hotloop (h : hotloop) =
    [
      ("cycles", Json.Int h.hl_cycles);
      ("loop_wall_s", Json.Float h.hl_loop_wall);
      ( "loop_cycles_per_sec",
        Json.Int (int_of_float (float_of_int h.hl_cycles /. h.hl_loop_wall)) );
      ("minor_words_per_cycle", Json.Float h.hl_minor_words_per_cycle);
    ]
  in
  let report =
    [
      ( "build_info",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Str v))
             (Report.build_info_labels ())) );
      ( "golden",
        Json.Obj
          [ ("cells", Json.Int smoke_cells); ("identical", Json.Bool true) ] );
      ( "hotloop",
        Json.Obj
          (hotloop hl
          @ [
              ("minor_words_ceiling", Json.Float ceiling);
              ( "profiler_overhead",
                let median, q1, q3 = hl.hl_profiler_overhead in
                Json.Obj
                  [
                    ("median", Json.Float median);
                    ("q1", Json.Float q1);
                    ("q3", Json.Float q3);
                    ("pairs", Json.Int overhead_pairs);
                  ] );
              ( "stages",
                Json.List
                  (List.map
                     (fun (name, sec, share) ->
                       Json.Obj
                         [
                           ("stage", Json.Str name);
                           ("seconds", Json.Float sec);
                           ("share", Json.Float share);
                         ])
                     hl.hl_stages) );
            ]) );
      ("hotloop_ports", Json.Obj (("core", Json.Str "p@w4") :: hotloop hp));
      ("scheduler", Json.Obj [ ("cycles_skipped", Json.Int skipped) ]);
      ("windows", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) wc));
    ]
  in
  Out_channel.with_open_bin "BENCH_pipeline.json" (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s  \"%s\": %s"
            (if i > 0 then ",\n" else "")
            k (Json.to_string v))
        report;
      output_string oc "\n}\n");
  Printf.printf "smoke: wrote BENCH_pipeline.json\n%!"

(* Same runtime shape as the CLIs: the large nursery is part of the
   configuration whose throughput this benchmark records.  [--smoke] is
   accepted (CI passes it); there is one mode. *)
let () =
  Protean_ooo.Gc_tune.tune ();
  smoke ()
