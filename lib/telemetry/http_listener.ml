(* Minimal HTTP/1.0 endpoint serving the Prometheus exposition of a
   live metrics registry, so long-running campaigns are scrapable
   mid-run instead of only via end-of-run files.

   Deliberately tiny: no keep-alive, no chunking, no threads.  The
   owner (the supervisor's select loop) polls [fds] alongside its
   worker pipes and calls [handle] for whichever became readable, so
   scraping shares the event loop instead of needing one of its own.
   Only [GET /metrics] exists; everything else is 404.  Requests are
   read incrementally (a scraper that dribbles its request bytes
   cannot stall the campaign) and bounded to [max_request] bytes. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t; (* request bytes until the blank line *)
}

type t = {
  sock : Unix.file_descr;
  port : int;
  provider : unit -> string; (* Prometheus 0.0.4 text, rendered per scrape *)
  mutable conns : conn list;
}

let max_request = 8192

(* A request *line* longer than this is rejected with 414 as soon as the
   bound is crossed — before the blank line, so a scraper streaming an
   endless URI is cut off after one read past the limit instead of being
   buffered up to [max_request]. *)
let max_request_line = 2048

let rec retry_intr f =
  try f ()
  with Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> retry_intr f

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Serve on [sock], already bound and listening on [port] (the owner
   binds it, so a port-0 request is reported by [port t]). *)
let create sock ~port provider = { sock; port; provider; conns = [] }

let port t = t.port

(* All fds the owner should select on: the listen socket plus any
   connections still reading their request. *)
let fds t = t.sock :: List.map (fun c -> c.fd) t.conns

let send_response fd status body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %s\r\n\
       Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      status (String.length body)
  in
  let payload = Bytes.of_string (head ^ body) in
  let len = Bytes.length payload in
  (try
     let off = ref 0 in
     while !off < len do
       off := !off + retry_intr (fun () -> Unix.write fd payload !off (len - !off))
     done
   with Unix.Unix_error _ -> ());
  close_quiet fd

let respond t (c : conn) =
  let req = Buffer.contents c.buf in
  let line =
    match String.index_opt req '\r' with
    | Some i -> String.sub req 0 i
    | None -> req
  in
  match String.split_on_char ' ' line with
  | [ "GET"; "/metrics"; _ ] | [ "GET"; "/metrics" ] ->
      send_response c.fd "200 OK" (t.provider ())
  | [ "GET"; _; _ ] | [ "GET"; _ ] ->
      send_response c.fd "404 Not Found" "not found\n"
  | _ -> send_response c.fd "400 Bad Request" "bad request\n"

(* True when the first CRLF has not arrived within [max_request_line]
   bytes: the request line itself is over-long. *)
let request_line_too_long buf =
  let s = Buffer.contents buf in
  let n = String.length s in
  if n <= max_request_line then false
  else
    match String.index_opt s '\r' with
    | Some i -> i > max_request_line
    | None -> true

let request_complete buf =
  let s = Buffer.contents buf in
  let n = String.length s in
  let rec scan i =
    if i + 3 >= n then false
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then true
    else scan (i + 1)
  in
  scan 0

(* Advance whichever of [t]'s fds turned up readable in the owner's
   select.  Accepts new connections, reads request bytes, answers and
   closes completed requests.  Never raises on socket errors — a
   misbehaving scraper must not take a campaign down. *)
let handle t readable =
  if List.memq t.sock readable then begin
    match retry_intr (fun () -> Unix.accept t.sock) with
    | fd, _ -> t.conns <- { fd; buf = Buffer.create 256 } :: t.conns
    | exception Unix.Unix_error _ -> ()
  end;
  let scratch = Bytes.create 1024 in
  let step (c : conn) =
    if not (List.memq c.fd readable) then Some c
    else
      match retry_intr (fun () -> Unix.read c.fd scratch 0 (Bytes.length scratch)) with
      | 0 ->
          close_quiet c.fd;
          None
      | k ->
          Buffer.add_subbytes c.buf scratch 0 k;
          if request_complete c.buf then begin
            respond t c;
            None
          end
          else if request_line_too_long c.buf then begin
            send_response c.fd "414 URI Too Long" "request line too long\n";
            None
          end
          else if Buffer.length c.buf > max_request then begin
            send_response c.fd "400 Bad Request" "request too large\n";
            None
          end
          else Some c
      | exception Unix.Unix_error _ ->
          close_quiet c.fd;
          None
  in
  t.conns <- List.filter_map step t.conns

let close t =
  List.iter (fun c -> close_quiet c.fd) t.conns;
  t.conns <- [];
  close_quiet t.sock
