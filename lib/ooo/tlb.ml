(* A small fully-associative TLB with LRU replacement.  TLB fills and
   evictions are part of the default adversary model's observations
   (AMuLeT's cache+TLB adversary). *)

type t = {
  entries : int64 array; (* page numbers; -1 = invalid *)
  lru : int array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let create n =
  {
    entries = Array.make n Int64.minus_one;
    lru = Array.make n 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let page_of addr = Int64.shift_right_logical addr 12

(* Returns true on hit; fills on miss. *)
let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let page = page_of addr in
  let n = Array.length t.entries in
  let i = ref 0 in
  while !i < n && not (Int64.equal t.entries.(!i) page) do incr i done;
  if !i < n then (t.lru.(!i) <- t.clock; true)
  else begin
    t.misses <- t.misses + 1;
    let victim = ref 0 in
    for i = 1 to n - 1 do
      if t.lru.(i) < t.lru.(!victim) then victim := i
    done;
    t.entries.(!victim) <- page;
    t.lru.(!victim) <- t.clock;
    false
  end
