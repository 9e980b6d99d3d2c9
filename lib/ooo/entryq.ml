(* A growable array deque of ROB entries, used by the O(active) issue
   scheduler for the collections that want indexed access: the in-flight
   (issued, not yet executed) set and the live store/load queues.

   Live elements are [a.(front .. back-1)].  The store/load queues are
   kept seq-ascending (pushed at rename, popped at commit, truncated
   from the back by squashes), which makes [lower_bound] a binary
   search.  The in-flight set is *not* seq-ordered (issue order); its
   consumers compact or filter it with full scans.

   Slots outside the live window always hold [Rob_entry.null] so the
   deque never pins flushed entries for the GC. *)

type t = {
  mutable a : Rob_entry.t array;
  mutable front : int;
  mutable back : int;
}

let create ?(capacity = 16) () =
  { a = Array.make (max capacity 1) Rob_entry.null; front = 0; back = 0 }

let length q = q.back - q.front

let push q e =
  if q.back = Array.length q.a then begin
    let n = length q in
    if q.front * 2 >= Array.length q.a && q.front > 0 then begin
      (* Plenty of dead space at the front: slide left instead of growing. *)
      Array.blit q.a q.front q.a 0 n;
      Array.fill q.a n (Array.length q.a - n) Rob_entry.null
    end
    else begin
      let fresh = Array.make (max 8 (Array.length q.a * 2)) Rob_entry.null in
      Array.blit q.a q.front fresh 0 n;
      q.a <- fresh
    end;
    q.front <- 0;
    q.back <- n
  end;
  q.a.(q.back) <- e;
  q.back <- q.back + 1

let drop_front q =
  q.a.(q.front) <- Rob_entry.null;
  q.front <- q.front + 1;
  if q.front = q.back then begin
    q.front <- 0;
    q.back <- 0
  end

(* Remove every element with seq >= [seq] (they form a suffix of a
   seq-ascending deque). *)
let truncate_ge q seq =
  while q.back > q.front && q.a.(q.back - 1).Rob_entry.seq >= seq do
    q.back <- q.back - 1;
    q.a.(q.back) <- Rob_entry.null
  done;
  if q.front = q.back then begin
    q.front <- 0;
    q.back <- 0
  end

(* Keep only elements with seq < [seq], preserving order; for unordered
   deques (the in-flight set).  Normalizes [front] to 0. *)
let filter_lt q seq =
  let w = ref 0 in
  for i = q.front to q.back - 1 do
    let e = q.a.(i) in
    if e.Rob_entry.seq < seq then begin
      q.a.(!w) <- e;
      incr w
    end
  done;
  Array.fill q.a !w (q.back - !w) Rob_entry.null;
  q.front <- 0;
  q.back <- !w

(* First index in [front, back) whose entry has seq >= [seq]; [back] when
   none.  Requires the deque seq-ascending. *)
let lower_bound q seq =
  let lo = ref q.front and hi = ref q.back in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if q.a.(mid).Rob_entry.seq < seq then lo := mid + 1 else hi := mid
  done;
  !lo

let iter f q =
  for i = q.front to q.back - 1 do
    f q.a.(i)
  done
