(* Depth-first branch and bound with warm-started child solves.

   Branching tightens variable BOUNDS, never adds rows: a node is a pair
   of maps (raised lower bounds, lowered upper bounds) over the columns
   of one shared sparse instance built once per solve. The root
   relaxation is a cold primal solve ({!Revised.solve_primal}, the exact
   dense-trajectory-compatible path). Every child starts from its
   parent's optimal basis: only bounds changed, and the branched variable
   was basic in the parent, so the parent basis is still dual feasible
   and {!Revised.solve_dual} re-optimizes without a phase 1. If the dual
   gives up ({!Revised.Stuck} — iteration cap or singular warm basis),
   the node falls back to the historical cold solve with explicit bound
   rows; children of a fallback node inherit no snapshot and fall back
   too. Both paths are deterministic, so a node's result is a pure
   function of (bounds, parent snapshot).

   Pruning uses the incumbent: for maximization a node whose relaxation
   value is <= the incumbent objective cannot improve it (the objective
   need not be integral in general, so we prune on <=, not on floor).

   By default the problem first goes through {!Presolve}, which eliminates
   the variables pinned down by flow-conservation equalities and tightens
   the rest; the branch and bound then runs on the reduced problem and the
   winning assignment is mapped back through the postsolve closure. *)

open Ipet_num
module IMap = Map.Make (Int)

type stats = {
  lp_calls : int;
  nodes : int;
  pivots : int;
  refactorizations : int;
  warm_hits : int;
  warm_misses : int;
  first_lp_integral : bool;
  presolve : Presolve.stats option;
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

(* node solve outcome: enough for pruning, branching and warm-starting *)
type node_sol = {
  nvalue : Rat.t;                       (* maximization value incl. constant *)
  nassign : (string * Rat.t) list;      (* vars-order nonzero assignment *)
  nsnap : Revised.snapshot option;      (* None after a row-based fallback *)
}

type node_res = NOptimal of node_sol | NInfeasible | NUnbounded

let solve_raw ~max_nodes problem =
  let maximize = problem.Lp_problem.direction = Lp_problem.Maximize in
  (* normalize to maximization so that bounding logic is uniform *)
  let base = { problem with
               Lp_problem.direction = Lp_problem.Maximize;
               objective = (if maximize then problem.Lp_problem.objective
                            else Linexpr.neg problem.Lp_problem.objective) }
  in
  (* branch bounds only mention existing variables, so one sort-dedup and
     one sparse instance serve every node *)
  let vars = Lp_problem.variables base in
  let inst = Sparse.build ~vars base in
  let nstruct = inst.Sparse.nstruct in
  let col_of_var = Hashtbl.create (2 * nstruct + 1) in
  Array.iteri (fun i v -> Hashtbl.replace col_of_var v i) inst.Sparse.vars;
  let cost = Array.make nstruct Rat.zero in
  Array.iteri
    (fun i v -> cost.(i) <- Linexpr.coeff base.Lp_problem.objective v)
    inst.Sparse.vars;
  let obj_const = Linexpr.constant base.Lp_problem.objective in
  let lp_calls = ref 0 in
  let nodes = ref 0 in
  let pivot_count = ref 0 in
  let refactor_count = ref 0 in
  let warm_hits = ref 0 in
  let warm_misses = ref 0 in
  let first_lp_integral = ref false in
  let incumbent = ref None in
  let better value =
    match !incumbent with
    | None -> true
    | Some (best, _) -> Rat.compare value best > 0
  in
  let stats () =
    { lp_calls = !lp_calls; nodes = !nodes; pivots = !pivot_count;
      refactorizations = !refactor_count;
      warm_hits = !warm_hits; warm_misses = !warm_misses;
      first_lp_integral = !first_lp_integral; presolve = None }
  in
  let assignment_of_xstruct xstruct =
    let out = ref [] in
    for i = Array.length xstruct - 1 downto 0 do
      if not (Rat.is_zero xstruct.(i)) then
        out := (inst.Sparse.vars.(i), xstruct.(i)) :: !out
    done;
    !out
  in
  (* cold re-solve with the node's bounds as explicit rows — the
     historical behaviour, kept as the fallback when a warm start cannot
     be completed *)
  let solve_fallback (lom, upm) =
    let extra = ref [] in
    for j = nstruct - 1 downto 0 do
      (match IMap.find_opt j upm with
       | Some u ->
         let e =
           Linexpr.sub (Linexpr.var inst.Sparse.vars.(j)) (Linexpr.const u)
         in
         extra := Lp_problem.constr ~origin:"branch" e Lp_problem.Le :: !extra
       | None -> ());
      (match IMap.find_opt j lom with
       | Some l when Rat.sign l > 0 ->
         let e =
           Linexpr.sub (Linexpr.const l) (Linexpr.var inst.Sparse.vars.(j))
         in
         extra := Lp_problem.constr ~origin:"branch" e Lp_problem.Le :: !extra
       | _ -> ());
    done;
    let node_problem =
      { base with Lp_problem.constraints = !extra @ base.Lp_problem.constraints }
    in
    match
      Simplex.solve ~vars ~pivots:pivot_count ~refactors:refactor_count
        node_problem
    with
    | Simplex.Optimal { value; assignment } ->
      NOptimal { nvalue = value; nassign = assignment; nsnap = None }
    | Simplex.Infeasible -> NInfeasible
    | Simplex.Unbounded -> NUnbounded
  in
  (* one node's LP, warm from the parent's basis when there is one; the
     work it took goes into the solve's counters *)
  let solve_node ~warm bounds =
    let lom, upm = bounds in
    let of_run (run : Revised.run) =
      pivot_count := !pivot_count + run.Revised.pivots;
      refactor_count := !refactor_count + run.Revised.refactors;
      match run.Revised.verdict with
      | Revised.Infeasible -> NInfeasible
      | Revised.Unbounded -> NUnbounded
      | Revised.Optimal sol ->
        NOptimal
          { nvalue = Rat.add sol.Revised.value obj_const;
            nassign = assignment_of_xstruct sol.Revised.xstruct;
            nsnap = Some sol.Revised.snapshot }
    in
    match warm with
    | Some snap ->
      let lower = Array.make nstruct Rat.zero in
      IMap.iter (fun j l -> lower.(j) <- l) lom;
      let upper = Array.make nstruct None in
      IMap.iter (fun j u -> upper.(j) <- Some u) upm;
      (match Revised.solve_dual inst ~cost ~lower ~upper ~warm:snap with
       | run ->
         incr warm_hits;
         of_run run
       | exception Revised.Stuck ->
         incr warm_misses;
         solve_fallback bounds)
    | None ->
      if IMap.is_empty lom && IMap.is_empty upm then
        of_run (Revised.solve_primal inst ~cost)
      else begin
        incr warm_misses;
        solve_fallback bounds
      end
  in
  let branch bounds v x =
    let lom, upm = bounds in
    let j = Hashtbl.find col_of_var v in
    let f = Rat.of_bigint (Rat.floor x) and c = Rat.of_bigint (Rat.ceil x) in
    let left =
      (lom,
       IMap.update j
         (function Some u -> Some (Rat.min u f) | None -> Some f)
         upm)
    in
    let right =
      (IMap.update j
         (function Some l -> Some (Rat.max l c) | None -> Some c)
         lom,
       upm)
    in
    (left, right)
  in
  let unbounded = ref false in
  let rec explore bounds warm depth =
    if !unbounded then ()
    else begin
      incr nodes;
      if !nodes > max_nodes then raise Node_limit_exceeded;
      incr lp_calls;
      match solve_node ~warm bounds with
      | NInfeasible -> ()
      | NUnbounded ->
        (* The relaxation being unbounded at the root means the ILP is
           unbounded or infeasible; for IPET problems (flow polytopes with a
           unit source) feasibility is immediate, so report unbounded. *)
        if depth = 0 then unbounded := true
        else ()
      | NOptimal sol ->
        if depth = 0 && fractional_var sol.nassign = None then
          first_lp_integral := true;
        if !incumbent <> None && not (better sol.nvalue) then ()
        else begin
          match fractional_var sol.nassign with
          | None ->
            if better sol.nvalue then incumbent := Some (sol.nvalue, sol.nassign)
          | Some (v, x) ->
            let left, right = branch bounds v x in
            explore left sol.nsnap (depth + 1);
            explore right sol.nsnap (depth + 1)
        end
    end
  in
  explore (IMap.empty, IMap.empty) None 0;
  if !unbounded then Unbounded (stats ())
  else
    match !incumbent with
    | None -> Infeasible (stats ())
    | Some (value, assignment) ->
      let value = if maximize then value else Rat.neg value in
      Optimal { value; assignment; stats = stats () }

let solve ?(max_nodes = 100_000) ?(presolve = true) ?pool:_ problem =
  if not presolve then solve_raw ~max_nodes problem
  else
    match Presolve.run ~integer:true problem with
    | Presolve.Proved_infeasible { stats; reason = _ } ->
      Infeasible
        { lp_calls = 0; nodes = 0; pivots = 0; refactorizations = 0;
          warm_hits = 0; warm_misses = 0; first_lp_integral = false;
          presolve = Some stats }
    | Presolve.Reduced { problem = reduced; postsolve; stats = pstats } ->
      (match solve_raw ~max_nodes reduced with
       | Optimal { value; assignment; stats } ->
         Optimal
           { value;
             assignment = postsolve assignment;
             stats = { stats with presolve = Some pstats } }
       | Infeasible stats -> Infeasible { stats with presolve = Some pstats }
       | Unbounded stats -> Unbounded { stats with presolve = Some pstats })
