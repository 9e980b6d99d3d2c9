(* Span-based tracing with Chrome trace-event JSON export.

   A recorder accumulates typed events — spans with a duration, instant
   markers, and process names — and renders them in the Trace Event
   Format's "JSON array" flavor, which chrome://tracing and Perfetto
   load directly (https://ui.perfetto.dev, "Open trace file").

   Timestamps are microseconds relative to the recorder's epoch (its
   creation time by default), as integers: Perfetto needs only relative
   ordering, and small integers keep traces compact and diff-friendly.

   Recording is mutex-serialized: spans arrive from parallel fill
   domains and from the supervisor's select loop.  When no recorder is
   installed the producers are gated at their call sites (the same
   attached/detached discipline as the metrics registry), so tracing
   costs nothing unless an exporter asked for it. *)

type event =
  | Span of {
      name : string;
      cat : string;
      ts_us : int; (* start, relative to epoch *)
      dur_us : int;
      pid : int;
      tid : int;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : int;
      pid : int;
      tid : int;
      args : (string * string) list;
    }
  | Process_name of { pid : int; label : string } (* metadata record *)

type t = {
  epoch : float; (* Unix.gettimeofday at creation *)
  mutable events : event list; (* newest first *)
  lock : Mutex.t;
}

let create ?epoch () =
  {
    epoch = (match epoch with Some e -> e | None -> Unix.gettimeofday ());
    events = [];
    lock = Mutex.create ();
  }

let now_us t = int_of_float ((Unix.gettimeofday () -. t.epoch) *. 1e6)
let us_of t wall = int_of_float ((wall -. t.epoch) *. 1e6)

let record t ev =
  Mutex.lock t.lock;
  t.events <- ev :: t.events;
  Mutex.unlock t.lock

(* A completed span from wall-clock endpoints ([Unix.gettimeofday]). *)
let span t ?(cat = "cell") ?(pid = 0) ?(tid = 0) ?(args = []) ~t0 ~t1 name =
  record t
    (Span
       {
         name;
         cat;
         ts_us = us_of t t0;
         dur_us = max 0 (int_of_float ((t1 -. t0) *. 1e6));
         pid;
         tid;
         args;
       })

(* A completed span from raw microsecond endpoints already relative to
   the epoch.  Used for simulated-time tracks (one simulated cycle = one
   microsecond, on a pid of their own), where wall-clock conversion
   would be meaningless. *)
let span_us t ?(cat = "cell") ?(pid = 0) ?(tid = 0) ?(args = []) ~ts_us
    ~dur_us name =
  record t (Span { name; cat; ts_us; dur_us = max 0 dur_us; pid; tid; args })

(* A span measured around [f]. *)
let with_span t ?cat ?pid ?tid ?args name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> span t ?cat ?pid ?tid ?args ~t0 ~t1:(Unix.gettimeofday ()) name)
    f

let instant t ?(cat = "event") ?(pid = 0) ?(tid = 0) ?(args = []) name =
  record t (Instant { name; cat; ts_us = now_us t; pid; tid; args })

let name_process t ~pid label = record t (Process_name { pid; label })

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let event_json ev =
  let strs kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs) in
  Json.Obj
    (match ev with
    | Span { name; cat; ts_us; dur_us; pid; tid; args } ->
        [
          ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str "X");
          ("ts", Json.Int ts_us); ("dur", Json.Int dur_us); ("pid", Json.Int pid);
          ("tid", Json.Int tid); ("args", strs args);
        ]
    | Instant { name; cat; ts_us; pid; tid; args } ->
        [
          ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str "i");
          ("s", Json.Str "t"); ("ts", Json.Int ts_us); ("pid", Json.Int pid);
          ("tid", Json.Int tid); ("args", strs args);
        ]
    | Process_name { pid; label } ->
        [
          ("name", Json.Str "process_name"); ("ph", Json.Str "M");
          ("pid", Json.Int pid); ("tid", Json.Int 0);
          ("args", strs [ ("name", label) ]);
        ])

(* The JSON-array format: events in chronological record order.  A
   trailing newline and no trailing comma — strict parsers (Perfetto's
   JSON ingestion, python -m json.tool) accept it as-is. *)
let to_chrome_json t =
  Mutex.lock t.lock;
  let events = List.rev t.events in
  Mutex.unlock t.lock;
  Metrics.json_lines (List.map event_json events)
