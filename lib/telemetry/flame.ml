(* Collapsed-stack ("folded") flamegraph accumulation.

   One line per distinct stack, frames separated by semicolons, the
   sample weight last:

     bearssl;ct:aes_ct;decrypt 123456

   which is exactly the input of flamegraph.pl / inferno / speedscope.
   Weights here are simulated cycles (integers), attributed by the
   {!Profile} observer's commit-gap histogram, so the folded total of a
   run equals its simulated cycle count — the invariant the telemetry
   smoke test checks. *)

type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 64

let frame_sep = ';'

(* Frames must not contain the separator or newlines; weights would
   silently mis-fold otherwise. *)
let clean_frame f =
  String.map (fun c -> if c = frame_sep || c = '\n' || c = ' ' then '_' else c) f

let stack_of_frames frames =
  String.concat (String.make 1 frame_sep) (List.map clean_frame frames)

let add (t : t) ~frames n =
  if n > 0 then begin
    let stack = stack_of_frames frames in
    let prev = try Hashtbl.find t stack with Not_found -> 0 in
    Hashtbl.replace t stack (prev + n)
  end

let add_stack (t : t) stack n =
  if n > 0 then begin
    let prev = try Hashtbl.find t stack with Not_found -> 0 in
    Hashtbl.replace t stack (prev + n)
  end

let to_list (t : t) =
  Hashtbl.fold (fun stack n acc -> (stack, n) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Folded text, stacks sorted for deterministic output. *)
let to_folded (t : t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (stack, n) -> Buffer.add_string b (Printf.sprintf "%s %d\n" stack n))
    (to_list t);
  Buffer.contents b
