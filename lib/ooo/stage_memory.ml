(* Memory-disambiguation machinery: the LSQ search used for
   store-to-load forwarding, memory-order speculation and its recovery,
   and the store-set-style memory-dependence predictor (MDP).

   Pure queries over [Pipeline_state] plus the MDP bitmap; the actual
   load/store execution lives in [Stage_issue_exec], order-violation
   squashes in [Squash].

   All three searches run over the live store/load deques
   ([S.lsq_stores]/[S.lsq_loads], seq-ascending), not the ROB ring:
   cost is O(log lsq + matches scanned) instead of O(ROB occupancy),
   with the identical scan order (youngest-older-first for forwarding,
   oldest-younger-first for violation detection), each a top-level
   recursion over deque indexes that allocates no closure. *)

module S = Pipeline_state

let mdp_index pc = pc land 1023
let mdp_flagged (t : S.t) pc = Bytes.get t.S.mdp (mdp_index pc) = '\001'
let mdp_flag (t : S.t) pc = Bytes.set t.S.mdp (mdp_index pc) '\001'

(* Does a store below deque index [i] still have an unknown address?
   A memory entry's address is known exactly once it has issued. *)
let rec unknown_store_below (q : Entryq.t) i =
  i > q.Entryq.front
  && ((not q.Entryq.a.(i - 1).Rob_entry.issued)
     || unknown_store_below q (i - 1))

(* Is there an older store whose address is still unknown? *)
let older_store_addr_unknown (t : S.t) (e : Rob_entry.t) =
  let q = t.S.lsq_stores in
  unknown_store_below q (Entryq.lower_bound q e.Rob_entry.seq)

type fwd_result =
  | Fwd_value of Rob_entry.t (* fully-covering executed older store *)
  | Fwd_wait (* overlapping older store not ready to forward *)
  | Fwd_none

(* The youngest store below deque index [i] overlapping the [size]
   bytes at [addr]. *)
let rec forward_below (q : Entryq.t) addr size i =
  if i <= q.Entryq.front then Fwd_none
  else begin
    let st = q.Entryq.a.(i - 1) in
    if st.Rob_entry.issued then begin
      let sa = st.Rob_entry.addr and ss = st.Rob_entry.msize in
      let overlap =
        Int64.compare sa (Int64.add addr (Int64.of_int size)) < 0
        && Int64.compare addr (Int64.add sa (Int64.of_int ss)) < 0
      in
      if overlap then begin
        let covers =
          Int64.compare sa addr <= 0
          && Int64.compare (Int64.add sa (Int64.of_int ss))
               (Int64.add addr (Int64.of_int size))
             >= 0
        in
        if covers && st.Rob_entry.executed then Fwd_value st else Fwd_wait
      end
      else forward_below q addr size (i - 1)
    end
    else forward_below q addr size (i - 1)
  end

(* Youngest older store overlapping the load's bytes.  Older stores whose
   address is still unknown are speculatively ignored (memory-order
   speculation); mis-speculation is caught when the store executes. *)
let forward_search (t : S.t) (e : Rob_entry.t) addr size =
  let q = t.S.lsq_stores in
  forward_below q addr size (Entryq.lower_bound q e.Rob_entry.seq)

(* Extract the forwarded bytes from a covering store. *)
let forwarded_value (st : Rob_entry.t) addr size =
  let shift = Int64.to_int (Int64.sub addr st.Rob_entry.addr) * 8 in
  let v = Int64.shift_right_logical st.Rob_entry.mem_value shift in
  if size >= 8 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L (8 * size)) 1L)

(* Memory-order violation check, run when a store's address becomes
   known: any younger load that already executed on overlapping bytes
   without forwarding from this store read stale data.  The oldest such
   load (= the first match of an ascending scan) is the squash point;
   [Rob_entry.null] when there is none. *)
let rec violating_load_from (q : Entryq.t) (st : Rob_entry.t) i =
  if i >= q.Entryq.back then Rob_entry.null
  else begin
    let ld = q.Entryq.a.(i) in
    if
      ld.Rob_entry.issued
      && ld.Rob_entry.fwd_from <> st.Rob_entry.seq
      && Int64.compare st.Rob_entry.addr
           (Int64.add ld.Rob_entry.addr (Int64.of_int ld.Rob_entry.msize))
         < 0
      && Int64.compare ld.Rob_entry.addr
           (Int64.add st.Rob_entry.addr (Int64.of_int st.Rob_entry.msize))
         < 0
    then ld
    else violating_load_from q st (i + 1)
  end

let check_order_violation (t : S.t) (st : Rob_entry.t) =
  let q = t.S.lsq_loads in
  violating_load_from q st (Entryq.lower_bound q (st.Rob_entry.seq + 1))
