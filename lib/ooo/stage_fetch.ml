(* Fetch stage: branch-predicted instruction fetch into the fetch buffer.

   Owns [fetch_pc], [fetch_stalled] and the fetch buffer; consults (and
   updates, for calls/returns) the branch predictor's RSB.  Counts each
   fetched instruction in [Stats.fetched]. *)

open Protean_isa
module S = Pipeline_state

let predict_next (t : S.t) pc (insn : Insn.t) =
  match insn.Insn.op with
  | Insn.Jcc (_, target) ->
      if Branch_pred.predict_direction t.S.bp pc then target else pc + 1
  | Insn.Jmp target -> target
  | Insn.Call target ->
      Branch_pred.rsb_push t.S.bp (pc + 1);
      target
  | Insn.Ret -> (
      match Branch_pred.rsb_pop t.S.bp with Some p -> p | None -> -1)
  | Insn.Jmpi _ -> (
      match Branch_pred.predict_indirect t.S.bp pc with
      | Some target -> target
      | None -> -1)
  | Insn.Halt -> -1
  | _ -> pc + 1

let run (t : S.t) =
  let fetched = ref 0 in
  while
    (not t.S.fetch_stalled)
    && !fetched < t.S.cfg.Config.fetch_width
    && not (S.fb_full t)
  do
    let pc = t.S.fetch_pc in
    let insn =
      if Program.in_bounds t.S.program pc then Program.insn t.S.program pc
      else S.halt_insn
    in
    let next = predict_next t pc insn in
    S.fb_push t ~pc ~pred_target:next
      ~ready:(t.S.cycle + t.S.cfg.Config.frontend_latency)
      ~fetched:t.S.cycle;
    t.S.stats.Stats.fetched <- t.S.stats.Stats.fetched + 1;
    t.S.progress <- true;
    incr fetched;
    if next < 0 then t.S.fetch_stalled <- true else t.S.fetch_pc <- next
  done
