(** Sparse byte-addressable memory, stored as 4-KiB pages.

    Unmapped bytes read as zero, so transient wrong-path accesses to
    arbitrary addresses are always well-defined; reading never maps a
    page.  Values are little-endian.  Pages are keyed by [int] page
    number with the last page found memoized; accesses of 1, 4 and 8
    bytes inside one page are a single word access, and strings move
    one page-sized chunk at a time.  Reads update the memo, so a [t]
    must not be used from two domains at once. *)

type t

val create : unit -> t

val read_byte : t -> int64 -> int
val write_byte : t -> int64 -> int -> unit

val read : t -> int64 -> int -> int64
(** [read t addr size] reads [size] (≤ 8) little-endian bytes. *)

val write : t -> int64 -> int -> int64 -> unit
val write_string : t -> int64 -> string -> unit
val read_string : t -> int64 -> int -> string

val iter_pages : t -> (int64 -> Bytes.t -> unit) -> unit
(** Every mapped page, by page number (address shifted right by 12). *)
