(* Depth-first branch and bound over the exact simplex.

   A node is the base problem plus the rows its branchings added, each
   [x <= floor] or [x >= ceil]; every node, the root included (no extra
   rows), is one cold {!Simplex.solve}, so the root relaxation is
   pivot-for-pivot the historical dense solver's. IPET root relaxations
   are almost always integral (the paper's Section VI observation), so a
   child solve is rare and re-solving it from scratch costs nothing
   measurable.

   Pruning uses the incumbent: for maximization a node whose relaxation
   value is <= the incumbent objective cannot improve it (the objective
   need not be integral in general, so we prune on <=, not on floor).

   By default the problem first goes through {!Presolve}, which eliminates
   the variables pinned down by flow-conservation equalities and tightens
   the rest; the branch and bound then runs on the reduced problem and the
   winning assignment is mapped back through the postsolve closure. *)

open Ipet_num

type stats = {
  lp_calls : int;
  nodes : int;
  pivots : int;
  refactorizations : int;
  warm_hits : int;
  warm_misses : int;
  first_lp_integral : bool;
  presolve : Presolve.stats option;
  root_duals : Rat.t array option Lazy.t;
}

type result =
  | Optimal of { value : Rat.t; assignment : (string * Rat.t) list; stats : stats }
  | Infeasible of stats
  | Unbounded of stats

exception Node_limit_exceeded

let fractional_var assignment =
  let rec go = function
    | [] -> None
    | (v, x) :: rest -> if Rat.is_integer x then go rest else Some (v, x)
  in
  go assignment

(* a branching bound as the row [e <= 0] *)
let branch_row e = Lp_problem.constr ~origin:"branch" e Lp_problem.Le

let solve_raw ~max_nodes problem =
  let maximize = problem.Lp_problem.direction = Lp_problem.Maximize in
  (* normalize to maximization so that bounding logic is uniform *)
  let base = { problem with
               Lp_problem.direction = Lp_problem.Maximize;
               objective = (if maximize then problem.Lp_problem.objective
                            else Linexpr.neg problem.Lp_problem.objective) }
  in
  (* branch rows only mention existing variables, so one sort-dedup
     serves every node *)
  let vars = Lp_problem.variables base in
  let lp_calls = ref 0 in
  let nodes = ref 0 in
  let pivot_count = ref 0 in
  let refactor_count = ref 0 in
  let first_lp_integral = ref false in
  let root_duals = ref None in
  let incumbent = ref None in
  let better value =
    match !incumbent with
    | None -> true
    | Some (best, _) -> Rat.compare value best > 0
  in
  let stats () =
    { lp_calls = !lp_calls; nodes = !nodes; pivots = !pivot_count;
      refactorizations = !refactor_count; warm_hits = 0; warm_misses = 0;
      first_lp_integral = !first_lp_integral; presolve = None;
      root_duals = Lazy.from_val !root_duals }
  in
  let unbounded = ref false in
  let rec explore rows depth =
    if !unbounded then ()
    else begin
      incr nodes;
      if !nodes > max_nodes then raise Node_limit_exceeded;
      incr lp_calls;
      let node =
        { base with
          Lp_problem.constraints = rows @ base.Lp_problem.constraints }
      in
      match
        Simplex.solve ~vars ~pivots:pivot_count ~refactors:refactor_count node
      with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded ->
        (* The relaxation being unbounded at the root means the ILP is
           unbounded or infeasible; for IPET problems (flow polytopes with a
           unit source) feasibility is immediate, so report unbounded. *)
        if depth = 0 then unbounded := true
      | Simplex.Optimal { value; assignment; duals } ->
        (* [base] maximizes; a Minimize problem's multipliers are negated *)
        if depth = 0 then
          root_duals :=
            Some (if maximize then duals else Array.map Rat.neg duals);
        let fractional = fractional_var assignment in
        if depth = 0 && fractional = None then first_lp_integral := true;
        if !incumbent <> None && not (better value) then ()
        else begin
          match fractional with
          | None -> incumbent := Some (value, assignment)
          | Some (v, x) ->
            let xv = Linexpr.var v in
            let f = Linexpr.const (Rat.of_bigint (Rat.floor x))
            and c = Linexpr.const (Rat.of_bigint (Rat.ceil x)) in
            explore (branch_row (Linexpr.sub xv f) :: rows) (depth + 1);
            explore (branch_row (Linexpr.sub c xv) :: rows) (depth + 1)
        end
    end
  in
  explore [] 0;
  if !unbounded then Unbounded (stats ())
  else
    match !incumbent with
    | None -> Infeasible (stats ())
    | Some (value, assignment) ->
      let value = if maximize then value else Rat.neg value in
      Optimal { value; assignment; stats = stats () }

let solve_presolved ?(max_nodes = 100_000) (outcome, lift) =
  match outcome with
  | Presolve.Proved_infeasible { stats; reason = _ } ->
    Infeasible
      { lp_calls = 0; nodes = 0; pivots = 0; refactorizations = 0;
        warm_hits = 0; warm_misses = 0; first_lp_integral = false;
        presolve = Some stats; root_duals = Lazy.from_val None }
  | Presolve.Reduced { problem = reduced; postsolve; stats = pstats } ->
    let presolved (stats : stats) =
      { stats with
        presolve = Some pstats;
        root_duals = lazy (Option.bind (Lazy.force stats.root_duals) lift) }
    in
    (match solve_raw ~max_nodes reduced with
     | Optimal { value; assignment; stats } ->
       Optimal
         { value; assignment = postsolve assignment; stats = presolved stats }
     | Infeasible stats -> Infeasible (presolved stats)
     | Unbounded stats -> Unbounded (presolved stats))

let solve ?(max_nodes = 100_000) ?(presolve = true) ?pool:_ problem =
  if presolve then
    solve_presolved ~max_nodes
      (Presolve.emit
         (Presolve.fixpoint ~integer:true ~lift:true
            problem.Lp_problem.constraints)
         problem.Lp_problem.direction problem.Lp_problem.objective)
  else solve_raw ~max_nodes problem
