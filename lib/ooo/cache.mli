(** Set-associative cache with LRU replacement and, for the L1D, the
    per-byte protection bits of ProtISA's memory ProtSet tracking
    (Section IV-C2a).

    The cache models timing and tag state only; data always comes from
    the memory module or the LSQ.  A line fill starts with every byte
    protected — evictions make ProtISA forget what was unprotected. *)

type t

val create : ?prot:bool -> Config.cache_cfg -> t
(** [prot] (default true) enables per-byte protection tracking; pass
    [~prot:false] for caches whose bytes ProtISA never tracks (L2/L3) —
    they share one dummy protection buffer and skip the per-fill reset.
    Timing and tag behavior are identical either way. *)

val access : t -> int64 -> bool
(** Access the line containing the address: LRU update, allocate on miss
    (evicting the LRU way; new lines all-protected).  True on a hit; a
    hit allocates nothing. *)

type miss = {
  set : int;
  tag : int64;
  evicted : int64 option;  (** line address of the victim, if any *)
}

val last_miss : t -> miss
(** The set, filled tag and victim of the most recent miss. *)

val set_index : t -> int64 -> int

val protected_bytes : t -> int64 -> int -> bool
(** Are any of the [size] bytes at the address protected?  Bytes not
    present in the cache are protected by definition. *)

val set_protection : t -> int64 -> int -> protected:bool -> unit
(** Set the protection of the bytes that are present in the cache. *)
