(* Minimal JSON: the one codec every producer and reader in the tree
   shares — shard frames, fuzz cells and checkpoints, and the metric,
   trace, log and attribution exports.

   No external JSON dependency is available, and the payloads are
   machine-generated, so a small strict parser suffices.  Floats print
   as %.17g (lossless for doubles) with nan/inf as quoted strings the
   parser maps back, so numeric results round-trip bit-exactly — the
   byte-identical merge of worker and checkpointed cells depends on
   this. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let buf_add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_nan f then Buffer.add_string b "\"nan\""
      else if f = Float.infinity then Buffer.add_string b "\"inf\""
      else if f = Float.neg_infinity then Buffer.add_string b "\"-inf\""
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s ->
      Buffer.add_char b '"';
      buf_add_escaped b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          buf_add_escaped b k;
          Buffer.add_string b "\":";
          emit b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  emit b j;
  Buffer.contents b

exception Parse of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else parse_error "expected %c at %d" c !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then parse_error "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 >= n then parse_error "short \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> parse_error "bad \\u escape %s" hex
                in
                (* Payloads are generated by [emit], which only
                   \u-escapes control characters. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else parse_error "non-ascii \\u escape";
                pos := !pos + 4
            | c -> parse_error "bad escape \\%c" c);
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> parse_error "bad number %s" tok)
  in
  let literal word v =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      v
    end
    else parse_error "bad literal at %d" !pos
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some '"' -> (
        let str = parse_string () in
        (* nan/inf round-trip through strings. *)
        match str with
        | "nan" -> Float Float.nan
        | "inf" -> Float Float.infinity
        | "-inf" -> Float Float.neg_infinity
        | _ -> Str str)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> parse_error "expected , or } at %d" !pos
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> parse_error "expected , or ] at %d" !pos
          in
          List (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing bytes at %d" !pos;
  v

(* Accessors: the protocol is typed at the frame layer, so lookups
   raise [Parse] on shape mismatches and the frame decoder turns that
   into a protocol error. *)
let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_int = function
  | Int i -> i
  | j -> parse_error "expected int, got %s" (to_string j)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | j -> parse_error "expected float, got %s" (to_string j)

let to_str = function
  | Str s -> s
  | j -> parse_error "expected string, got %s" (to_string j)

let to_list = function
  | List xs -> xs
  | j -> parse_error "expected list, got %s" (to_string j)
