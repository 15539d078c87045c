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

let direction_cost inst problem =
  let obj =
    match problem.Lp_problem.direction with
    | Lp_problem.Maximize -> problem.Lp_problem.objective
    | Lp_problem.Minimize -> Linexpr.neg problem.Lp_problem.objective
  in
  let nstruct = inst.Sparse.nstruct in
  let cost = Array.make nstruct Rat.zero in
  Array.iteri
    (fun i v -> cost.(i) <- Linexpr.coeff obj v)
    inst.Sparse.vars;
  (cost, obj)

let assignment_of_xstruct inst xstruct =
  let out = ref [] in
  for i = Array.length xstruct - 1 downto 0 do
    if not (Rat.is_zero xstruct.(i)) then
      out := (inst.Sparse.vars.(i), xstruct.(i)) :: !out
  done;
  !out

(* [Sparse.build] negates a row whose right-hand side [-constant] is
   negative, so that row's price is negated back *)
let row_flipped (c : Lp_problem.constr) =
  Rat.sign (Linexpr.constant c.Lp_problem.expr) > 0

let solve ?vars ?pivots:pivot_count ?refactors:refactor_count problem =
  let vars =
    match vars with Some vs -> vs | None -> Lp_problem.variables problem
  in
  let inst = Sparse.build ~vars problem in
  let cost, obj = direction_cost inst problem in
  let run = Revised.solve_primal inst ~cost in
  Option.iter (fun r -> r := !r + run.Revised.pivots) pivot_count;
  Option.iter (fun r -> r := !r + run.Revised.refactors) refactor_count;
  match run.Revised.verdict with
  | Revised.Infeasible -> Infeasible
  | Revised.Unbounded -> Unbounded
  | Revised.Optimal sol ->
    let z = Rat.add sol.Revised.value (Linexpr.constant obj) in
    let maximize = problem.Lp_problem.direction = Lp_problem.Maximize in
    let y = sol.Revised.prices in
    let duals =
      Array.of_list
        (List.mapi
           (fun i c ->
             let yi = if row_flipped c then Rat.neg y.(i) else y.(i) in
             if maximize then yi else Rat.neg yi)
           problem.Lp_problem.constraints)
    in
    Optimal
      { value = (if maximize then z else Rat.neg z);
        assignment = assignment_of_xstruct inst sol.Revised.xstruct;
        duals }
