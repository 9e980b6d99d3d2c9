(* Metrics registry: counters, gauges and fixed-bucket histograms.

   Design constraints, in priority order:

   - *Integer determinism.*  Every stored value is an [int]; snapshots
     carry no floats, so a merged snapshot is a pure function of the
     per-shard snapshots and serial / `-j N` / `--shards N` runs render
     byte-identical reports.  (Wall-clock belongs in {!Trace}, not
     here.)
   - *Free when detached.*  The registry itself allocates only at
     metric registration; the hot paths ([inc]/[observe]) are one array
     or field store.  Simulation-side producers are additionally gated
     behind the hook bus's interest mask, so a run with no exporter
     attached never reaches them at all.
   - *Deterministic rendering.*  Snapshots are sorted by (family,
     labels); exporters iterate the sorted snapshot, so the same data
     always prints the same bytes.

   Naming follows the Prometheus conventions documented in
   docs/observability.md: `protean_<layer>_<noun>[_total]`, labels for
   per-cell dimensions (bench, defense, core, ...). *)

type kind =
  | Counter (* monotone; merge = sum *)
  | Gauge (* last-known level; merge = max, which is order-free *)
  | Histogram of int array (* ascending inclusive bucket bounds *)

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram _ -> "histogram"

type metric = {
  m_family : string;
  m_help : string;
  m_kind : kind;
  m_labels : (string * string) list; (* sorted by label name *)
  mutable m_value : int; (* counter/gauge value; histogram sum *)
  mutable m_count : int; (* histogram observation count *)
  m_buckets : int array; (* cumulative-free per-bucket counts; [||] otherwise *)
}

type t = {
  tbl : (string, metric) Hashtbl.t; (* family + rendered labels -> metric *)
  lock : Mutex.t;
      (* registration and snapshotting may race with parallel fill
         domains; the per-metric mutations are single-writer per cell *)
}

let create () = { tbl = Hashtbl.create 64; lock = Mutex.create () }

let label_key labels =
  String.concat "\x00" (List.map (fun (k, v) -> k ^ "\x01" ^ v) labels)

let metric_key family labels = family ^ "\x00" ^ label_key labels

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register t ~help ~kind family labels =
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let key = metric_key family labels in
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some m -> m
      | None ->
          let m =
            {
              m_family = family;
              m_help = help;
              m_kind = kind;
              m_labels = labels;
              m_value = 0;
              m_count = 0;
              m_buckets =
                (match kind with
                | Histogram bounds -> Array.make (Array.length bounds + 1) 0
                | Counter | Gauge -> [||]);
            }
          in
          Hashtbl.replace t.tbl key m;
          m)

let counter t ?(help = "") ?(labels = []) family =
  register t ~help ~kind:Counter family labels

let gauge t ?(help = "") ?(labels = []) family =
  register t ~help ~kind:Gauge family labels

let histogram t ?(help = "") ?(labels = []) ~buckets family =
  register t ~help ~kind:(Histogram buckets) family labels

let inc ?(n = 1) m = m.m_value <- m.m_value + n

(* Gauges keep the maximum level seen: unlike "last write wins" this is
   insensitive to the order shards report in, so merged gauges stay
   deterministic. *)
let set m v = if v > m.m_value then m.m_value <- v

let observe m v =
  match m.m_kind with
  | Histogram bounds ->
      let n = Array.length bounds in
      let i = ref 0 in
      while !i < n && v > bounds.(!i) do
        incr i
      done;
      m.m_buckets.(!i) <- m.m_buckets.(!i) + 1;
      m.m_count <- m.m_count + 1;
      m.m_value <- m.m_value + v
  | Counter | Gauge -> invalid_arg "Metrics.observe: not a histogram"

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* A snapshot is pure data: samples sorted by (family, labels), each
   carrying enough of the metric's identity to merge and render without
   the registry that produced it. *)

type sample = {
  s_family : string;
  s_help : string;
  s_kind : kind;
  s_labels : (string * string) list;
  s_value : int;
  s_count : int;
  s_buckets : int array;
}

type snapshot = sample list

let sample_order a b =
  match compare a.s_family b.s_family with
  | 0 -> compare a.s_labels b.s_labels
  | c -> c

let snapshot t : snapshot =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ m acc ->
          {
            s_family = m.m_family;
            s_help = m.m_help;
            s_kind = m.m_kind;
            s_labels = m.m_labels;
            s_value = m.m_value;
            s_count = m.m_count;
            s_buckets = Array.copy m.m_buckets;
          }
          :: acc)
        t.tbl [])
  |> List.sort sample_order

(* Merge by (family, labels): counters and histograms sum, gauges take
   the max.  Commutative and associative, so any merge tree over the
   per-shard snapshots yields the same result. *)
let merge_samples a b =
  {
    a with
    s_value =
      (match a.s_kind with
      | Gauge -> max a.s_value b.s_value
      | Counter | Histogram _ -> a.s_value + b.s_value);
    s_count = a.s_count + b.s_count;
    s_buckets =
      (if a.s_buckets = [||] then b.s_buckets
       else if b.s_buckets = [||] then a.s_buckets
       else Array.mapi (fun i x -> x + b.s_buckets.(i)) a.s_buckets);
  }

let merge (a : snapshot) (b : snapshot) : snapshot =
  let tbl = Hashtbl.create 64 in
  let add s =
    let key = metric_key s.s_family s.s_labels in
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.replace tbl key s
    | Some prev -> Hashtbl.replace tbl key (merge_samples prev s)
  in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl [] |> List.sort sample_order

let families (snap : snapshot) =
  List.sort_uniq compare (List.map (fun s -> s.s_family) snap)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) kvs)
      ^ "}"

(* Prometheus text exposition format, version 0.0.4: one # HELP / # TYPE
   pair per family (first occurrence wins), then the samples.  The
   snapshot is already family-sorted, so families render contiguously. *)
let to_prometheus (snap : snapshot) =
  let b = Buffer.create 4096 in
  let last_family = ref "" in
  List.iter
    (fun s ->
      if s.s_family <> !last_family then begin
        last_family := s.s_family;
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n" s.s_family
             (if s.s_help = "" then s.s_family else s.s_help));
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" s.s_family (kind_name s.s_kind))
      end;
      match s.s_kind with
      | Counter | Gauge ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" s.s_family (render_labels s.s_labels)
               s.s_value)
      | Histogram bounds ->
          let cum = ref 0 in
          Array.iteri
            (fun i le ->
              cum := !cum + s.s_buckets.(i);
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" s.s_family
                   (render_labels ~extra:("le", string_of_int le) s.s_labels)
                   !cum))
            bounds;
          cum := !cum + s.s_buckets.(Array.length bounds);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" s.s_family
               (render_labels ~extra:("le", "+Inf") s.s_labels)
               !cum);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %d\n" s.s_family
               (render_labels s.s_labels) s.s_value);
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" s.s_family
               (render_labels s.s_labels) s.s_count))
    snap;
  Buffer.contents b

(* JSON exporter: an array of sample objects, snapshot order, one per
   line.  Integers only, so the rendering is exact and stable. *)
let sample_json s =
  Json.Obj
    ([
       ("family", Json.Str s.s_family);
       ("type", Json.Str (kind_name s.s_kind));
       ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels));
       ("value", Json.Int s.s_value);
     ]
    @
    match s.s_kind with
    | Histogram bounds ->
        let bucket le n = Json.Obj [ ("le", le); ("n", Json.Int n) ] in
        [
          ("count", Json.Int s.s_count);
          ( "buckets",
            Json.List
              (List.mapi (fun j le -> bucket (Json.Int le) s.s_buckets.(j))
                 (Array.to_list bounds)
              @ [ bucket (Json.Str "+Inf") s.s_buckets.(Array.length bounds) ])
          );
        ]
    | Counter | Gauge -> [])

(* A JSON array with one element per line: the layout of the metric and
   trace exports. *)
let json_lines ?(indent = "") items =
  "[\n"
  ^ String.concat ",\n" (List.map (fun j -> indent ^ Json.to_string j) items)
  ^ "\n]\n"

let to_json (snap : snapshot) = json_lines ~indent:"  " (List.map sample_json snap)
