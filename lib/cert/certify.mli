(** Certificate production.

    [emit problem ~witness ~bound] solves the LP relaxation of the
    {e original, pre-presolve} problem once with the revised primal
    simplex, started at the witness ({!Ipet_lp.Revised.solve_at}), and
    takes the dual multipliers from its final basis, then packages them
    with the witness and the problem digest.

    The solve is on the untouched problem on purpose: the production
    solve runs on the presolved problem, and presolve rounds bounds to
    integers for ILPs — a rounded bound is a {e strictly stronger}
    constraint than the original row, so duals of the presolved LP do not
    in general certify the original one. Solving the untouched problem
    keeps the proof about exactly the constraint set the digest names
    (see DESIGN.md §5). Starting at the witness makes that solve cheap:
    the first LP relaxation of an IPET problem is integral, so the
    witness is usually an optimal vertex already. Its basis is factored
    in one sparse elimination pass over its positive, then zero-valued,
    columns, and only a few degenerate phase-2 pivots remain, often none.
    A witness that violates a row or is not a vertex falls back to the
    cold solve from the all-artificial basis.

    The resulting certificate's [dual_bound] is the true LP-relaxation
    optimum: the gap closes exactly when the relaxation's optimum equals
    the integral bound (the paper's observation for all 13 benchmarks).
    Only [duals] depends on which optimal basis the solve ends in. *)

open Ipet_num
open Ipet_lp

type emitted = {
  cert : Certificate.t;
  pivots : int;
      (** simplex pivots of the solve: from the witness, phase 2's only
          (factoring the witness's basis is not a pivot) *)
  from_witness : bool;  (** [false] when the solve fell back to cold *)
}

val emit :
  Lp_problem.t ->
  witness:(string * Rat.t) list ->
  bound:Rat.t ->
  (emitted, string) result
(** [witness] is a solver assignment for [problem] (zeros allowed; it is
    canonicalized), [bound] its objective value. Fails when the LP
    relaxation is infeasible or unbounded — neither can happen for a
    problem whose ILP was solved to optimality. The certificate is a pure
    function of [problem], [witness] and [bound]. *)

val certify :
  Lp_problem.t ->
  witness:(string * Rat.t) list ->
  bound:Rat.t ->
  (Certificate.t, string) result
(** {!emit} without the solve's statistics. *)
