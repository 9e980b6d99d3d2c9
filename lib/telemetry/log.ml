(* Leveled structured logger.

   One process-global logger: the harness is already process-global in
   its sinks ([Experiment.line_sink], shard F_log frames), and the point
   here is precisely to unify them.  Records carry a level, a source, a
   message and optional key/value fields; two render modes:

   - text:  "[warn] fuzz.checkpoint: truncated frame (path=...)"
   - json:  {"level":"warn","src":"fuzz.checkpoint","msg":"...","path":"..."}

   The sink is swappable: the default writes stderr, the experiment
   session retargets it at its log file, and shard workers retarget it
   at F_log frames so worker records surface through the supervisor's
   lifecycle bus.  Emission is mutex-serialized, same as the old
   [Experiment.log_line]. *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let min_level = ref Info
let json_mode = ref false

let set_level l = min_level := l
let set_json b = json_mode := b

let default_sink line =
  Printf.eprintf "%s\n%!" line

let sink : (string -> unit) ref = ref default_sink
let set_sink f = sink := f
let reset_sink () = sink := default_sink

let lock = Mutex.create ()

let render_text ~level ~src ~fields msg =
  let kvs =
    match fields with
    | [] -> ""
    | kvs ->
        " ("
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ ")"
  in
  Printf.sprintf "[%s] %s: %s%s" (level_name level) src msg kvs

let render_json ~level ~src ~fields msg =
  Json.to_string
    (Json.Obj
       (List.map
          (fun (k, v) -> (k, Json.Str v))
          ([ ("level", level_name level); ("src", src); ("msg", msg) ] @ fields)))

let log ?(src = "protean") ?(fields = []) level fmt =
  Printf.ksprintf
    (fun msg ->
      if level_rank level >= level_rank !min_level then begin
        let line =
          if !json_mode then render_json ~level ~src ~fields msg
          else render_text ~level ~src ~fields msg
        in
        Mutex.lock lock;
        Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> !sink line)
      end)
    fmt

let debug ?src ?fields fmt = log ?src ?fields Debug fmt
let info ?src ?fields fmt = log ?src ?fields Info fmt
let warn ?src ?fields fmt = log ?src ?fields Warn fmt
let error ?src ?fields fmt = log ?src ?fields Error fmt
