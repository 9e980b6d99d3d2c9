(* Sets of architectural registers as bit masks.  With 18 architectural
   registers a set fits comfortably in one immediate integer, which keeps
   the dataflow solvers allocation-free. *)

open Protean_isa

type t = int

let empty = 0
let full = (1 lsl Reg.count) - 1

let singleton r = 1 lsl Reg.to_int r
let mem r s = s land singleton r <> 0
let add r s = s lor singleton r
let remove r s = s land lnot (singleton r)
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let equal (a : t) (b : t) = a = b
let is_empty s = s = 0
let subset a b = a land lnot b = 0

let of_list rs = List.fold_left (fun s r -> add r s) empty rs
let to_list s = List.filter (fun r -> mem r s) Reg.all
