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
  warm_misses : int;
      (** always 0: every node is solved cold. Both are kept only for
          ledger/, which still reads them. *)
  first_lp_integral : bool;
      (** the root relaxation was already integer-valued *)
  presolve : Presolve.stats option;
      (** reduction statistics; [None] when presolve was disabled *)
  root_duals : Rat.t array option Lazy.t;
      (** the root relaxation's row prices as multipliers on the solved
          problem's constraints, in {!Simplex.result}'s [duals]
          convention: when presolve ran, lifted back through its
          reductions ({!Presolve.lift}) on first force. [None] when the
          root relaxation was not optimal or the lift gave up. Their
          bound is the root relaxation's optimum, which is [value]
          whenever the first relaxation was integral. *)
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

    Every node, the root included, is one cold {!Simplex.solve} of the
    problem plus the node's branching bounds as rows, so the root
    relaxation is solved pivot-for-pivot identically to the historical
    dense solver.

    The search is a sequential depth-first branch and bound. [pool] is
    kept for ledger/, no other caller; it is accepted and ignored.
    @raise Node_limit_exceeded if the bound is hit. *)

val solve_presolved :
  ?max_nodes:int -> Presolve.outcome * Presolve.lift -> result
(** The branch and bound on a presolved problem, its assignment mapped
    back through the postsolve and its root prices through the lift:
    [solve ~presolve:true p] is [solve_presolved (Presolve.emit
    (Presolve.fixpoint ~lift:true (Lp_problem.Columns.make p.constraints))
    p.direction p.objective)]. Solving each outcome {!Presolve.emit} draws
    from one {!Presolve.fixpoint} presolves a constraint set once for
    several objectives. *)
