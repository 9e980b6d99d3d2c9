(* The checkpoint of a campaign: the file of completed cells that
   {!Campaign.run} keeps in every mode, so an interrupted campaign
   resumes with only its missing cells.  One JSON object per line:

     {"version":1,"campaign":"<identity>"}
     {"key":"<cell key>","r":<payload>}

   The header names the campaign ({!Campaign.identity}): a file of
   another campaign, or without a header, resumes nothing.  Each
   completed cell is appended and flushed as one line, its payload in
   the codec its result frame uses, so a kill mid-append leaves at most
   a torn last line, which the next open drops.  Entries are matched by
   key; ids come from the current cell list.  Opening rewrites the
   header and the kept entries atomically (temp file + rename), then
   appends.  This module is the only one that knows the format. *)

module Json = Protean_telemetry.Json

let version = 1

type t = {
  oc : out_channel;
  lock : Mutex.t; (* [-j] domains record concurrently *)
  keys : (int, string) Hashtbl.t; (* cell id -> key *)
}

let line fields = Json.to_string (Json.Obj fields) ^ "\n"

let warn path fmt =
  Protean_telemetry.Log.warn ~src:"checkpoint" ~fields:[ ("path", path) ] fmt

(* The (key, payload) entries of [path] that belong to [campaign].  Every
   entry is an object, so no proper prefix of one parses: an unparseable
   line is a torn one. *)
let load ~campaign path =
  let lines =
    if not (Sys.file_exists path) then []
    else
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
  in
  let parse l = try Json.of_string l with Json.Parse _ -> Json.Null in
  match List.map parse lines with
  | [] -> []
  | h :: rest -> (
      match (Json.member "version" h, Json.member "campaign" h) with
      | Json.Int v, Json.Str c when v = version && c = campaign ->
          let entries =
            List.filter_map
              (fun e ->
                match (Json.member "key" e, Json.member "r" e) with
                | Json.Str key, r when r <> Json.Null -> Some (key, r)
                | _ -> None)
              rest
          in
          let torn = List.length rest - List.length entries in
          if torn > 0 then warn path "%s: dropped %d torn line(s)" path torn;
          entries
      | _, c ->
          warn path "%s holds another campaign (%s); ignoring it" path
            (match c with Json.Str c -> c | _ -> "no checkpoint header");
          [])

(* Open the checkpoint at [path] for [campaign] over [cells]: the handle
   completed cells are recorded through, and the cells the file already
   holds as (id, payload), sorted by id.  Raises [Sys_error] when [path]
   cannot be written — before any cell runs. *)
let resume ~campaign ~(cells : Shard.cell list) path =
  let ids = Hashtbl.create 64 and keys = Hashtbl.create 64 in
  List.iter
    (fun (c : Shard.cell) ->
      Hashtbl.replace ids c.Shard.c_key c.Shard.c_id;
      Hashtbl.replace keys c.Shard.c_id c.Shard.c_key)
    cells;
  let kept = Hashtbl.create 64 in
  List.iter
    (fun (key, r) ->
      match Hashtbl.find_opt ids key with
      | Some id when not (Hashtbl.mem kept id) -> Hashtbl.replace kept id r
      | _ -> ())
    (load ~campaign path);
  let resumed =
    List.sort
      (fun (a, _) (b, _) -> compare (a : int) b)
      (List.of_seq (Hashtbl.to_seq kept))
  in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc
        (line [ ("version", Json.Int version); ("campaign", Json.Str campaign) ]);
      List.iter
        (fun (id, r) ->
          output_string oc (line [ ("key", Json.Str (Hashtbl.find keys id)); ("r", r) ]))
        resumed);
  Sys.rename tmp path;
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  ({ oc; lock = Mutex.create (); keys }, resumed)

(* Append cell [id]'s payload and flush it. *)
let record t id r =
  Option.iter
    (fun key ->
      let l = line [ ("key", Json.Str key); ("r", r) ] in
      Mutex.protect t.lock (fun () ->
          output_string t.oc l;
          flush t.oc))
    (Hashtbl.find_opt t.keys id)

let close t = close_out_noerr t.oc
