(* Sparse byte-addressable memory, stored as 4-KiB pages.  Unmapped bytes
   read as zero, so transient wrong-path accesses to arbitrary addresses
   are always well-defined. *)

let page_bits = 12
let page_size = 1 lsl page_bits

type t = { pages : (int64, Bytes.t) Hashtbl.t }

let create () = { pages = Hashtbl.create 64 }

let page_of addr = Int64.shift_right_logical addr page_bits
let offset_of addr = Int64.to_int (Int64.logand addr 0xfffL)

let find_page t pn = Hashtbl.find_opt t.pages pn

let get_page t pn =
  match Hashtbl.find_opt t.pages pn with
  | Some p -> p
  | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace t.pages pn p;
      p

let read_byte t addr =
  match find_page t (page_of addr) with
  | None -> 0
  | Some p -> Char.code (Bytes.get p (offset_of addr))

let write_byte t addr v =
  let p = get_page t (page_of addr) in
  Bytes.set p (offset_of addr) (Char.chr (v land 0xff))

let read t addr size =
  let rec loop i acc =
    if i < 0 then acc
    else
      let b = read_byte t (Int64.add addr (Int64.of_int i)) in
      loop (i - 1) (Int64.logor (Int64.shift_left acc 8) (Int64.of_int b))
  in
  loop (size - 1) 0L

let write t addr size v =
  for i = 0 to size - 1 do
    let b =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)
    in
    write_byte t (Int64.add addr (Int64.of_int i)) b
  done

let write_string t addr s =
  String.iteri
    (fun i c -> write_byte t (Int64.add addr (Int64.of_int i)) (Char.code c))
    s

let read_string t addr len =
  String.init len (fun i ->
      Char.chr (read_byte t (Int64.add addr (Int64.of_int i))))

let iter_pages t f = Hashtbl.iter f t.pages
