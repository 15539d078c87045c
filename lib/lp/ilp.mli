(** Branch-and-bound integer linear programming over the exact simplex.

    All variables are integer and non-negative. The solver records the
    statistics the paper reports in Section VI: how many LP relaxations were
    solved and whether the very first relaxation was already integral (which
    the paper observed to always be the case in practice for IPET
    problems).

    Unless disabled, every problem is first reduced by {!Presolve}: flow
    equalities are eliminated by substitution, bounds are propagated, and
    redundant rows dropped, after which the branch and bound runs on the
    (much smaller) residual problem. The reported assignment is always over
    the original variables. *)

open Ipet_num

type stats = {
  lp_calls : int;          (** number of LP relaxations solved *)
  nodes : int;             (** branch-and-bound nodes explored *)
  pivots : int;            (** simplex pivots over all relaxations *)
  refactorizations : int;  (** basis refactorizations over all relaxations *)
  warm_hits : int;
      (** non-root nodes re-optimized from the parent basis by the dual
          simplex, skipping phase 1 *)
  warm_misses : int;
      (** non-root nodes that fell back to a cold solve (dual gave up, or
          the parent itself was solved cold) *)
  first_lp_integral : bool;
      (** the root relaxation was already integer-valued *)
  presolve : Presolve.stats option;
      (** reduction statistics; [None] when presolve was disabled *)
}

type result =
  | Optimal of {
      value : Rat.t;  (** integral *)
      assignment : (string * Rat.t) list;
      stats : stats;
    }
  | Infeasible of stats
  | Unbounded of stats

exception Node_limit_exceeded

val solve :
  ?max_nodes:int -> ?presolve:bool -> ?pool:Ipet_par.Pool.t ->
  Lp_problem.t -> result
(** [solve problem] maximizes or minimizes the objective over non-negative
    integer assignments. [max_nodes] (default [100_000]) bounds the search;
    [presolve] (default [true]) runs {!Presolve.run} first. The optimal
    value, and the witness assignment modulo alternative optima, do not
    depend on [presolve].

    Branching tightens variable bounds on one shared sparse instance
    rather than adding constraint rows, and each child node warm-starts
    from its parent's optimal basis via the dual simplex
    ({!Revised.solve_dual}); {!stats} reports the resulting hit/miss
    split. The root relaxation is solved cold and pivot-for-pivot
    identically to the historical dense solver.

    The search is a sequential depth-first branch and bound. [pool] is
    kept for ledger/, no other caller; it is accepted and ignored.
    @raise Node_limit_exceeded if the bound is hit. *)
