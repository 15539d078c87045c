(* Exact-rational LP solve, now routed through the sparse revised simplex
   ({!Revised} over {!Sparse} instances with a {!Basis} eta-file
   factorization). The pivot trajectory — Bland entering rule, min-ratio
   leaving rule with ties to the smallest basic column, phase-1 then
   drive-artificials-out then phase-2 — replicates the historical dense
   tableau (kept as {!Dense}) exactly, so optimal assignments, not just
   values, are unchanged. *)

open Ipet_num

type result =
  | Optimal of {
      value : Rat.t;
      assignment : (string * Rat.t) list;
      duals : Rat.t array;
    }
  | Infeasible
  | Unbounded

let assignment_env assignment =
  let tbl = Hashtbl.create (2 * List.length assignment + 1) in
  List.iter (fun (v, x) -> Hashtbl.replace tbl v x) assignment;
  fun name ->
    match Hashtbl.find_opt tbl name with Some v -> v | None -> Rat.zero

(* The simplex runs on the rows' columns. A variable only the objective
   names is in no row: it sits at 0 unless raising it raises the
   objective, and then a feasible problem is unbounded, which is the
   verdict an empty column for it would give. *)
let solve ?pivots:pivot_count ?refactors:refactor_count problem =
  let columns = Lp_problem.Columns.make problem.Lp_problem.constraints in
  let inst = Sparse.build columns in
  let maximize = problem.Lp_problem.direction = Lp_problem.Maximize in
  let obj =
    if maximize then problem.Lp_problem.objective
    else Linexpr.neg problem.Lp_problem.objective
  in
  let cost, outside = Lp_problem.Columns.objective columns obj in
  let run = Revised.solve_primal inst ~cost in
  Option.iter (fun r -> r := !r + run.Revised.pivots) pivot_count;
  Option.iter (fun r -> r := !r + run.Revised.refactors) refactor_count;
  match run.Revised.verdict with
  | Revised.Infeasible -> Infeasible
  | Revised.Unbounded -> Unbounded
  | Revised.Optimal _ when List.exists (fun (_, a) -> Rat.sign a > 0) outside
    ->
    Unbounded
  | Revised.Optimal sol ->
    let z = Rat.add sol.Revised.value (Linexpr.constant obj) in
    let y = sol.Revised.prices in
    (* [Sparse.build] negates a row whose right-hand side [-constant] is
       negative, so that row's price is negated back; a minimization's
       prices are negated too *)
    let duals =
      Array.init inst.Sparse.nrows (fun i ->
          let c = Lp_problem.Columns.row columns i in
          let flipped = Rat.sign (Linexpr.constant c.Lp_problem.expr) > 0 in
          if flipped = maximize then Rat.neg y.(i) else y.(i))
    in
    let assignment = ref [] in
    for j = Array.length sol.Revised.xstruct - 1 downto 0 do
      let x = sol.Revised.xstruct.(j) in
      if not (Rat.is_zero x) then
        assignment := (Lp_problem.Columns.name columns j, x) :: !assignment
    done;
    Optimal
      { value = (if maximize then z else Rat.neg z);
        assignment = !assignment;
        duals }
