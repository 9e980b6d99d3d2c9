(** Sets of architectural registers as bit masks — allocation-free facts
    for the dataflow solvers. *)

open Protean_isa

type t = int

val empty : t
val full : t
val singleton : Reg.t -> t
val mem : Reg.t -> t -> bool
val add : Reg.t -> t -> t
val remove : Reg.t -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val is_empty : t -> bool
val subset : t -> t -> bool
val of_list : Reg.t list -> t
val to_list : t -> Reg.t list
