(* Pure instruction semantics shared by the sequential architectural
   executor and the out-of-order pipeline.  Flags are packed into an int64
   so the flags register lives in the ordinary register file. *)

open Protean_isa

(* Flag bits. *)
let zf_bit = 0
let sf_bit = 1
let cf_bit = 2
let of_bit = 3

let flag v bit = Int64.logand (Int64.shift_right_logical v bit) 1L = 1L

let pack ~zf ~sf ~cf ~ov =
  let b c bit = if c then Int64.shift_left 1L bit else 0L in
  Int64.logor
    (Int64.logor (b zf zf_bit) (b sf sf_bit))
    (Int64.logor (b cf cf_bit) (b ov of_bit))

let flags_of_result ?(cf = false) ?(ov = false) r =
  pack ~zf:(Int64.equal r 0L) ~sf:(Int64.compare r 0L < 0) ~cf ~ov

(* Unsigned comparison of int64 values. *)
let ucompare = Int64.unsigned_compare

let eval_cond c flags =
  let zf = flag flags zf_bit in
  let sf = flag flags sf_bit in
  let cf = flag flags cf_bit in
  let ov = flag flags of_bit in
  match c with
  | Insn.Z -> zf
  | Insn.Nz -> not zf
  | Insn.Lt -> sf <> ov
  | Insn.Le -> zf || sf <> ov
  | Insn.Gt -> (not zf) && sf = ov
  | Insn.Ge -> sf = ov
  | Insn.B -> cf
  | Insn.Be -> cf || zf
  | Insn.A -> (not cf) && not zf
  | Insn.Ae -> not cf

let eval_binop op a b =
  match op with
  | Insn.Add ->
      let r = Int64.add a b in
      let cf = ucompare r a < 0 in
      let ov =
        Int64.compare a 0L < 0 = (Int64.compare b 0L < 0)
        && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)
      in
      (r, flags_of_result ~cf ~ov r)
  | Insn.Sub ->
      let r = Int64.sub a b in
      let cf = ucompare a b < 0 in
      let ov =
        Int64.compare a 0L < 0 <> (Int64.compare b 0L < 0)
        && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)
      in
      (r, flags_of_result ~cf ~ov r)
  | Insn.And ->
      let r = Int64.logand a b in
      (r, flags_of_result r)
  | Insn.Or ->
      let r = Int64.logor a b in
      (r, flags_of_result r)
  | Insn.Xor ->
      let r = Int64.logxor a b in
      (r, flags_of_result r)
  | Insn.Shl ->
      let r = Int64.shift_left a (Int64.to_int (Int64.logand b 63L)) in
      (r, flags_of_result r)
  | Insn.Shr ->
      let r = Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L)) in
      (r, flags_of_result r)
  | Insn.Sar ->
      let r = Int64.shift_right a (Int64.to_int (Int64.logand b 63L)) in
      (r, flags_of_result r)
  | Insn.Mul ->
      let r = Int64.mul a b in
      (r, flags_of_result r)

let eval_unop op a =
  match op with
  | Insn.Not ->
      let r = Int64.lognot a in
      (r, flags_of_result r)
  | Insn.Neg ->
      let r = Int64.neg a in
      (r, flags_of_result ~cf:(not (Int64.equal a 0L)) r)

let eval_cmp a b = snd (eval_binop Insn.Sub a b)
let eval_test a b = flags_of_result (Int64.logand a b)

(* Unsigned division; the caller checks for a zero divisor (fault). *)
let eval_div n d = Int64.unsigned_div n d
let eval_rem n d = Int64.unsigned_rem n d

(* Register write of a given width.  [W32] zero-extends (x86-64 semantics,
   the source of SPT's 32-bit untaint performance issue, Section
   VII-B4c); [W8] merges into the low byte. *)
let apply_width w ~old v =
  match w with
  | Insn.W64 -> v
  | Insn.W32 -> Int64.logand v 0xffffffffL
  | Insn.W8 ->
      Int64.logor
        (Int64.logand old (Int64.lognot 0xffL))
        (Int64.logand v 0xffL)

(* Truncate a loaded value to its width (zero-extension for W8/W32 loads
   happens via [apply_width] + this truncation). *)
let truncate_width w v =
  match w with
  | Insn.W64 -> v
  | Insn.W32 -> Int64.logand v 0xffffffffL
  | Insn.W8 -> Int64.logand v 0xffL

let effective_address read (m : Insn.mem) =
  let base = match m.base with Some r -> read r | None -> 0L in
  let index =
    match m.index with
    | Some r -> Int64.mul (read r) (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.add (Int64.add base index) (Int64.of_int m.disp)

(* Number of significant bits of a value: the operand-dependent component
   of division latency, and the function of division operands exposed by
   the CT observer (partial transmission, Section II-B1). *)
let bit_length v =
  let rec loop v n = if Int64.equal v 0L then n else loop (Int64.shift_right_logical v 1) (n + 1) in
  loop v 0
