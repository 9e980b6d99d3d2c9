(* Pipeline micro-benchmark: simulation throughput of the stage-module
   pipeline, the hot-loop cost model, and the parallel-grid scaling of
   `-j N`.

     dune exec bench/bench_pipeline.exe            # writes BENCH_pipeline.json
     dune exec bench/bench_pipeline.exe -- out.json
     dune exec bench/bench_pipeline.exe -- --smoke # CI smoke: identity + alloc ceiling

   Measurements:

   - single: the UNR workload (ossl.bnexp compiled with ProtCC-UNR,
     ProtTrack defense, P-core) on one domain — simulated cycles per
     wall-clock second including pipeline construction, the end-to-end
     cost of an experiment cell;
   - hotloop: the same workload with construction excluded — loop-only
     cycles/second, minor GC words allocated per simulated cycle
     (Gc.quick_stat deltas around the step loop), the per-stage
     wall-clock breakdown from the [Profile] observer, and the overhead
     the profiler itself adds (the off-path must stay measurably free);
   - grid: the golden corpus (44 mixed single/multicore cells) at
     -j 1/2/4, asserting the lines are identical at every width and
     recording wall-clock speedup over serial.

   `--smoke` is the CI guard: it replays a reduced prefix of the golden
   corpus against test/golden_pipeline.expected (bit-identity) and
   fails if minor words per cycle exceed the checked-in ceiling in
   bench/hotloop_ceiling.txt — an allocation regression in the cycle
   loop breaks the build before it breaks throughput.

   Speedups are only meaningful relative to the `topology` block (a
   1-core container can verify determinism but not show speedup; extra
   domains there cost minor-GC barrier synchronization instead, and
   extra --shards workers time-slice one core).  The block records the
   host core count plus the shard/worker layout a supervised
   (`--shards N -j M`) run would use, so a stored JSON says whether its
   numbers are a performance measurement or a determinism check. *)

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

(* Host/build provenance, same labels as the `protean_build_info` metric:
   a stored BENCH_pipeline.json identifies the machine, compiler, source
   revision and active escape hatches that produced its numbers. *)
let build_info_json oc =
  Printf.fprintf oc "  \"build_info\": {%s}"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k (String.escaped v))
          (Report.build_info_labels ())))

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

let bench_single program =
  let d = Defense.find "prot-track" in
  (* One warm-up run so the measurement excludes first-touch costs. *)
  let run () =
    Pipeline.run ~fuel Config.p_core (d.Defense.make ()) program ~overlays:[]
  in
  ignore (run ());
  let r, wall = timed run in
  let cycles = r.Pipeline.stats.Stats.cycles in
  let committed = r.Pipeline.stats.Stats.committed in
  Printf.printf "single: %d cycles, %d committed in %.3fs (%.0f cycles/s)\n%!"
    cycles committed wall
    (float_of_int cycles /. wall);
  (cycles, committed, wall)

(* Drive a pre-built pipeline to completion: the loop the interest mask,
   the O(active) scheduler, event-driven skip-ahead and the allocation
   diet optimize.  [~until] opts the stepper into skip-ahead, exactly as
   [Pipeline.run] does. *)
let drive t =
  while (not (Pipeline.is_done t)) && t.Protean_ooo.Pipeline_state.cycle < fuel do
    Pipeline.step ~until:fuel t
  done

type hotloop = {
  hl_cycles : int;
  hl_loop_wall : float; (* step loop only, construction excluded *)
  hl_minor_words_per_cycle : float;
  hl_profiler_overhead : float; (* (profiled - plain) / plain wall *)
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
  (* Profiled runs: per-stage breakdown, and the cost of profiling
     (best-of-3 against the best plain wall; the profiler accumulates
     across runs and [stage_breakdown] normalizes to shares). *)
  let p = Profile.create () in
  let prof_wall =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let tp = make () in
           Profile.attach p tp;
           snd (timed (fun () -> drive tp))))
  in
  let overhead = (prof_wall -. loop_wall) /. loop_wall in
  Printf.printf
    "%s: %d cycles in %.4fs loop-only (%.0f cycles/s), %.0f minor words/cycle\n%!"
    label cycles loop_wall
    (float_of_int cycles /. loop_wall)
    mwpc;
  List.iter
    (fun (name, s, share) ->
      Printf.printf "%s:   %-10s %.4fs (%.0f%%)\n%!" label name s (share *. 100.))
    (Profile.stage_breakdown p);
  Printf.printf "%s: profiler overhead %.0f%%\n%!" label (overhead *. 100.);
  {
    hl_cycles = cycles;
    hl_loop_wall = loop_wall;
    hl_minor_words_per_cycle = mwpc;
    hl_profiler_overhead = overhead;
    hl_stages = Profile.stage_breakdown p;
  }

(* On a single-core host the timed -j sweep is meaningless — every lane
   multiplexes one CPU and any "speedup" is scheduler noise — so there
   the determinism diff still runs (parallel results must stay
   bit-identical to serial) but the timings are not reported as a sweep;
   the JSON says why. *)
let bench_grid () =
  let sweep_timed = Domain.recommended_domain_count () > 1 in
  let baseline, t1 = timed (fun () -> Golden.lines ()) in
  Printf.printf "grid: -j 1 %.3fs (%d cells)\n%!" t1 (List.length baseline);
  let points =
    List.map
      (fun jobs ->
        let lines, tj = timed (fun () -> Golden.lines ~jobs ()) in
        let identical = lines = baseline in
        if sweep_timed then
          Printf.printf "grid: -j %d %.3fs speedup %.2f identical %b\n%!" jobs
            tj (t1 /. tj) identical
        else
          Printf.printf
            "grid: -j %d identical %b (timing not reported: 1-core host)\n%!"
            jobs identical;
        if not identical then failwith "parallel grid diverged from serial";
        (jobs, tj, t1 /. tj))
      [ 2; 4 ]
  in
  (List.length baseline, t1, points, sweep_timed)

(* --smoke: the CI guard.  Replays the first [smoke_cells] golden cells
   serially and checks them against the recorded expectation
   (bit-identity of the fast scheduler), then asserts the loop-only
   allocation rate stays under the checked-in ceiling. *)

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
  (* Record the smoke measurements so CI archives them alongside the
     full bench's BENCH_pipeline.json. *)
  let oc = open_out "BENCH_pipeline.json" in
  Printf.fprintf oc "{\n  \"smoke\": true,\n";
  build_info_json oc;
  Printf.fprintf oc ",\n";
  Printf.fprintf oc "  \"hotloop\": {\n";
  Printf.fprintf oc "    \"cycles\": %d, \"loop_wall_s\": %.4f,\n" hl.hl_cycles
    hl.hl_loop_wall;
  Printf.fprintf oc "    \"minor_words_per_cycle\": %.1f,\n"
    hl.hl_minor_words_per_cycle;
  Printf.fprintf oc "    \"minor_words_ceiling\": %.1f\n  },\n" ceiling;
  Printf.fprintf oc "  \"hotloop_ports\": {\n";
  Printf.fprintf oc "    \"cycles\": %d, \"loop_wall_s\": %.4f,\n" hp.hl_cycles
    hp.hl_loop_wall;
  Printf.fprintf oc "    \"minor_words_per_cycle\": %.1f\n  },\n"
    hp.hl_minor_words_per_cycle;
  Printf.fprintf oc "  \"scheduler\": { \"cycles_skipped\": %d },\n" skipped;
  Printf.fprintf oc "  \"windows\": {%s}\n"
    (String.concat ", "
       (List.map (fun (name, n) -> Printf.sprintf "\"%s\": %d" name n) wc));
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "smoke: wrote BENCH_pipeline.json\n%!"

let () =
  (* Same runtime shape as the CLIs: the large nursery is part of the
     configuration whose throughput this benchmark records. *)
  Protean_ooo.Gc_tune.tune ();
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--smoke" then smoke ()
  else begin
    let out =
      if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_pipeline.json"
    in
    let program = unr_workload () in
    let cycles, committed, wall = bench_single program in
    let hl = bench_hotloop program in
    let hp =
      bench_hotloop
        ~config:(Config.with_width 4 Config.p_core)
        ~label:"hotloop-ports" program
    in
    let cells, t1, points, sweep_timed = bench_grid () in
    let oc = open_out out in
    let host_cores = Domain.recommended_domain_count () in
    (* The canonical supervised layout: workers × domains-per-worker,
       capped by the host.  total_lanes = host_cores means real
       parallelism; total_lanes > host_cores means the run exercises the
       machinery (determinism, crash recovery) without speedup. *)
    let shards = min 2 host_cores in
    let jobs_per_worker = max 1 (host_cores / shards) in
    Printf.fprintf oc "{\n";
    Printf.fprintf oc "  \"host_cores\": %d,\n" host_cores;
    build_info_json oc;
    Printf.fprintf oc ",\n";
    Printf.fprintf oc "  \"topology\": {\n";
    Printf.fprintf oc "    \"host_cores\": %d, \"default_jobs\": %d,\n" host_cores
      (Protean_harness.Parallel.default_jobs ());
    Printf.fprintf oc "    \"spawn_available\": %b,\n"
      (Protean_harness.Shard.can_spawn ());
    Printf.fprintf oc
      "    \"shards\": %d, \"jobs_per_worker\": %d, \"total_lanes\": %d,\n"
      shards jobs_per_worker (shards * jobs_per_worker);
    Printf.fprintf oc "    \"speedups_meaningful\": %b\n" (host_cores > 1);
    Printf.fprintf oc "  },\n";
    Printf.fprintf oc "  \"single\": {\n";
    Printf.fprintf oc
      "    \"bench\": \"ossl.bnexp\", \"pass\": \"unr\", \"defense\": \"prot-track\", \"core\": \"p\",\n";
    Printf.fprintf oc "    \"cycles\": %d, \"committed\": %d, \"wall_s\": %.3f,\n"
      cycles committed wall;
    Printf.fprintf oc "    \"cycles_per_sec\": %.0f\n"
      (float_of_int cycles /. wall);
    Printf.fprintf oc "  },\n";
    Printf.fprintf oc "  \"hotloop\": {\n";
    Printf.fprintf oc "    \"cycles\": %d, \"loop_wall_s\": %.4f,\n" hl.hl_cycles
      hl.hl_loop_wall;
    Printf.fprintf oc "    \"loop_cycles_per_sec\": %.0f,\n"
      (float_of_int hl.hl_cycles /. hl.hl_loop_wall);
    Printf.fprintf oc "    \"minor_words_per_cycle\": %.1f,\n"
      hl.hl_minor_words_per_cycle;
    Printf.fprintf oc "    \"profiler_overhead\": %.2f,\n"
      hl.hl_profiler_overhead;
    Printf.fprintf oc "    \"stages\": [\n";
    List.iteri
      (fun i (name, s, share) ->
        Printf.fprintf oc
          "      {\"stage\": \"%s\", \"seconds\": %.4f, \"share\": %.3f}%s\n"
          name s share
          (if i = List.length hl.hl_stages - 1 then "" else ","))
      hl.hl_stages;
    Printf.fprintf oc "    ]\n  },\n";
    Printf.fprintf oc "  \"hotloop_ports\": {\n";
    Printf.fprintf oc "    \"core\": \"p@w4\",\n";
    Printf.fprintf oc "    \"cycles\": %d, \"loop_wall_s\": %.4f,\n" hp.hl_cycles
      hp.hl_loop_wall;
    Printf.fprintf oc "    \"loop_cycles_per_sec\": %.0f,\n"
      (float_of_int hp.hl_cycles /. hp.hl_loop_wall);
    Printf.fprintf oc "    \"minor_words_per_cycle\": %.1f\n  },\n"
      hp.hl_minor_words_per_cycle;
    Printf.fprintf oc "  \"grid\": {\n";
    Printf.fprintf oc
      "    \"corpus\": \"golden\", \"cells\": %d, \"serial_wall_s\": %.3f,\n"
      cells t1;
    if sweep_timed then begin
      Printf.fprintf oc "    \"parallel\": [\n";
      List.iteri
        (fun i (jobs, tj, sp) ->
          Printf.fprintf oc
            "      {\"jobs\": %d, \"wall_s\": %.3f, \"speedup\": %.2f, \"identical\": true}%s\n"
            jobs tj sp
            (if i = List.length points - 1 then "" else ","))
        points;
      Printf.fprintf oc "    ]\n  }\n}\n"
    end
    else begin
      (* 1-core host: the sweep still ran for the determinism diff (all
         points identical or we'd have failed), but its timings are
         noise, not speedups — record that instead of fake numbers. *)
      Printf.fprintf oc "    \"parallel_identical\": [%s],\n"
        (String.concat ", "
           (List.map (fun (jobs, _, _) -> string_of_int jobs) points));
      Printf.fprintf oc
        "    \"jobs_sweep_timed\": false, \"jobs_sweep_note\": \"timings \
         not reported: host_cores=1\"\n  }\n}\n"
    end;
    close_out oc;
    Printf.printf "wrote %s\n%!" out
  end
