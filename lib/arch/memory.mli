(** Sparse byte-addressable memory, stored as 4-KiB pages.

    Unmapped bytes read as zero, so transient wrong-path accesses to
    arbitrary addresses are always well-defined.  Values are little-endian. *)

type t

val create : unit -> t
val page_of : int64 -> int64
val offset_of : int64 -> int

val read_byte : t -> int64 -> int
val write_byte : t -> int64 -> int -> unit

val read : t -> int64 -> int -> int64
(** [read t addr size] reads [size] (≤ 8) little-endian bytes. *)

val write : t -> int64 -> int -> int64 -> unit
val write_string : t -> int64 -> string -> unit
val read_string : t -> int64 -> int -> string

val iter_pages : t -> (int64 -> Bytes.t -> unit) -> unit
