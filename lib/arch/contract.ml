(* SEQ-execution-mode contract traces (Section II-C).

   A contract trace is the sequence of observations an observer mode
   exposes along the sequential execution of a program.  Two inputs are
   contract-equivalent when their traces are equal; a microarchitecture
   upholds the contract if contract-equivalent inputs are also
   indistinguishable to the adversary model. *)

open Protean_isa

type trace = Observer.atom array

type result = {
  trace : trace;
  final : Exec.state;
  steps : int;
  exhausted : bool; (* ran out of fuel before halting *)
}

(* Run [program] with the given memory [overlays] (e.g. secret inputs)
   under [mode], collecting the contract trace. *)
let run ?(fuel = 200_000) mode (program : Program.t) ~overlays =
  let state = Exec.init program in
  Exec.overlay state overlays;
  let protset = Protset.create () in
  let acc = ref [] in
  (* Pre-step register values for address-register atoms, refreshed in
     place before every step. *)
  let pre = Array.copy state.Exec.regs in
  let regv r = pre.(Reg.to_int r) in
  let rec loop n =
    if n <= 0 || state.Exec.halted then n
    else begin
      Array.blit state.Exec.regs 0 pre 0 (Array.length pre);
      let eff = Exec.step program state in
      Protset.step protset eff;
      let atoms = Observer.observe mode ~regv ~protset eff in
      acc := List.rev_append atoms !acc;
      loop (n - 1)
    end
  in
  let remaining = loop fuel in
  {
    trace = Array.of_list (List.rev !acc);
    final = state;
    steps = state.Exec.steps;
    exhausted = (remaining <= 0 && not state.Exec.halted);
  }

let traces_equal (a : trace) (b : trace) =
  Array.length a = Array.length b
  && (let n = Array.length a in
      let rec loop i = i >= n || (Observer.atom_equal a.(i) b.(i) && loop (i + 1)) in
      loop 0)

(* First index where the traces diverge, for diagnostics. *)
let first_divergence (a : trace) (b : trace) =
  let n = min (Array.length a) (Array.length b) in
  let rec loop i =
    if i >= n then if Array.length a <> Array.length b then Some n else None
    else if Observer.atom_equal a.(i) b.(i) then loop (i + 1)
    else Some i
  in
  loop 0
