(* Speculation-window telemetry: the structured leakage-attribution
   record and the summary-counter helpers shared by the harness layers.

   The ledger itself lives in the simulator ([Protean_ooo.Spec_window]);
   this module is pure data — the attribution record a violation replay
   produces, its JSON/text renderings, and the commutative merge /
   over-protection arithmetic over the ledger's summary counters — so
   every telemetry consumer (report, shard codec, tables, CLIs) can
   handle window data without depending on the simulator. *)

(* A leakage attribution: which speculative window leaked, through which
   transmitter, from which access.  [at_family] is the heuristic
   gadget-family classification per the SoK taxonomy: "v1"
   (bounds-check-bypass, conditional trigger), "v2" (indirect-branch
   trigger), "rsb" (return misprediction), "v4" (store bypass: divergence
   driven by a memory-order violation, no window divergence), or
   "unknown". *)
type attribution = {
  at_family : string;
  at_xmit_pc : int; (* the leaking transmitter *)
  at_src_pc : int; (* the access the tainted operand derives from; -1 *)
  at_window_id : int; (* -1 for window-less families (v4/unknown) *)
  at_window_pc : int; (* trigger branch pc; -1 likewise *)
  at_window_depth : int; (* nesting depth at open; -1 likewise *)
}

let attribution_to_json a =
  Json.Obj
    [
      ("family", Json.Str a.at_family);
      ("xmit_pc", Json.Int a.at_xmit_pc);
      ("src_pc", Json.Int a.at_src_pc);
      ("window_id", Json.Int a.at_window_id);
      ("window_pc", Json.Int a.at_window_pc);
      ("window_depth", Json.Int a.at_window_depth);
    ]

let render_attribution a =
  if a.at_window_id < 0 then
    Printf.sprintf "leak family=%s xmit_pc=%d src_pc=%d (no trigger window)"
      a.at_family a.at_xmit_pc a.at_src_pc
  else
    Printf.sprintf
      "leak family=%s xmit_pc=%d src_pc=%d window=%d trigger_pc=%d depth=%d"
      a.at_family a.at_xmit_pc a.at_src_pc a.at_window_id a.at_window_pc
      a.at_window_depth

(* ------------------------------------------------------------------ *)
(* Summary-counter helpers                                             *)
(* ------------------------------------------------------------------ *)

(* Ledger summaries travel as [(name, count) list] (the same shape as
   policy metrics).  Merging sums per name — commutative and
   associative, so shard/job merge order cannot change the result. *)
let merge_counters (a : (string * int) list) (b : (string * int) list) =
  let add acc (name, n) =
    let prev = try List.assoc name acc with Not_found -> 0 in
    (name, prev + n) :: List.remove_assoc name acc
  in
  let merged = List.fold_left add (List.fold_left add [] a) b in
  List.sort (fun (x, _) (y, _) -> compare x y) merged

let counter name counters =
  match List.assoc_opt name counters with Some n -> n | None -> 0

(* Over-protection ratio: interventions charged to windows that never
   leaked, over all interventions.  [None] when the defense never
   intervened (the ratio is undefined, not zero). *)
let over_protection counters =
  let benign = counter "interventions_benign" counters in
  let leaky = counter "interventions_leaky" counters in
  let total = benign + leaky in
  if total = 0 then None else Some (float_of_int benign /. float_of_int total)

let counters_to_json counters =
  Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) counters)
