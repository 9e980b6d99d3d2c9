(* Outside-in spans for the traced run: one span around each call the
   benchmark makes into a layer, with the minor words allocated while it
   was open.  Spans are kept in memory and written out at the end as a
   Chrome trace; per-name aggregates carry the count, the inclusive
   time, and the self time (a span's time minus the time its child
   spans cover). *)

module Trace = Protean_telemetry.Trace
module J = Protean_harness.Shard.Json

type agg = {
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable words : float;
  mutable self_words : float;
}

type frame = {
  t0 : float;
  w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

type t = {
  trace : Trace.t;
  aggs : (string, agg) Hashtbl.t;
  mutable stack : frame list;
  mutable spans : int;
}

let create () =
  let trace = Trace.create () in
  Trace.name_process trace ~pid:0 "perfbench";
  { trace; aggs = Hashtbl.create 32; stack = []; spans = 0 }

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a =
        { count = 0; total_s = 0.; self_s = 0.; words = 0.; self_words = 0. }
      in
      Hashtbl.replace t.aggs name a;
      a

let close t ~args name fr =
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
  let dur = t1 -. fr.t0 and words = w1 -. fr.w0 in
  (match t.stack with
  | parent :: _ ->
      parent.child_s <- parent.child_s +. dur;
      parent.child_w <- parent.child_w +. words
  | [] -> ());
  let a = agg t name in
  a.count <- a.count + 1;
  a.total_s <- a.total_s +. dur;
  a.self_s <- a.self_s +. dur -. fr.child_s;
  a.words <- a.words +. words;
  a.self_words <- a.self_words +. words -. fr.child_w;
  t.spans <- t.spans + 1;
  Trace.span t.trace ~cat:"layer" ~args ~t0:fr.t0 ~t1 name;
  dur

(* [f ()] inside a span named [name]; returns its value and duration. *)
let timed t ?(args = []) name f =
  let fr =
    { t0 = Unix.gettimeofday (); w0 = Gc.minor_words (); child_s = 0.; child_w = 0. }
  in
  t.stack <- fr :: t.stack;
  match f () with
  | v -> (v, close t ~args name fr)
  | exception e ->
      ignore (close t ~args name fr);
      raise e

let run t ?args name f = fst (timed t ?args name f)

let total_s t name =
  match Hashtbl.find_opt t.aggs name with Some a -> a.total_s | None -> 0.

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Trace.to_chrome_json t.trace))

let to_json t =
  J.Obj
    (Hashtbl.fold
       (fun name a acc ->
         ( name,
           J.Obj
             [
               ("count", J.Int a.count);
               ("total_s", J.Float a.total_s);
               ("self_s", J.Float a.self_s);
               ("words", J.Float a.words);
               ("self_words", J.Float a.self_words);
             ] )
         :: acc)
       t.aggs []
    |> List.sort compare)
