(* The in-process half of the repository benchmark; run.py drives it
   and owns timing, medians and the correctness checks.

     perfbench.exe info
     perfbench.exe grid [--setup-only] [--trace FILE]
     perfbench.exe fuzz --seed N --programs N [--setup-only] [--trace FILE]

   Each mode prints one JSON object on its last stdout line.  --trace
   replays the workload through the layers' public calls with a span
   around each and writes the spans to FILE as a Chrome trace. *)

module J = Protean_harness.Shard.Json

let usage () =
  prerr_endline
    "usage: perfbench.exe (info | grid | fuzz --seed N --programs N) \
     [--setup-only] [--trace FILE]";
  exit 2

type opts = {
  mode : string;
  seed : int;
  programs : int;
  setup_only : bool;
  trace : string option;
}

let parse argv =
  let rec go o = function
    | [] -> o
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--programs" :: n :: rest -> go { o with programs = int_of_string n } rest
    | "--setup-only" :: rest -> go { o with setup_only = true } rest
    | "--trace" :: path :: rest -> go { o with trace = Some path } rest
    | _ -> usage ()
  in
  match argv with
  | mode :: rest ->
      go { mode; seed = 1; programs = 300; setup_only = false; trace = None } rest
  | [] -> usage ()

let with_spans path f =
  let sp = Spans.create () in
  let fields = f sp in
  Spans.write sp path;
  fields @ [ ("spans", Spans.to_json sp); ("span_count", J.Int sp.Spans.spans) ]

let () =
  (* The same runtime shape as the CLIs: the tuned nursery is part of
     what the benchmark measures. *)
  Protean_ooo.Gc_tune.tune ();
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  let fields =
    match (o.mode, o.trace) with
    | "info", _ ->
        List.map
          (fun (k, v) -> (k, J.Str v))
          (Protean_harness.Report.build_info_labels ())
    | "grid", None -> Grid_work.untraced ~setup_only:o.setup_only
    | "grid", Some path -> with_spans path Grid_work.traced
    | "fuzz", None ->
        Fuzz_work.untraced ~seed:o.seed ~programs:o.programs
          ~setup_only:o.setup_only
    | "fuzz", Some path ->
        with_spans path (fun sp ->
            Fuzz_work.traced sp ~seed:o.seed ~programs:o.programs)
    | _ -> usage ()
  in
  print_endline (J.to_string (J.Obj fields))
