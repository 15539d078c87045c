(** Exact presolve for IPET-style (integer) linear programs.

    The ILPs of the paper are dominated by flow-conservation equalities
    [x_i = Σ d_in = Σ d_out]: most variables are determined by a small
    independent set, and the simplex spends its pivots walking through that
    redundancy. This module removes it up front, iterating to a fixpoint:

    + {b substitution} of variables defined by an equality row (Gaussian
      elimination restricted to definitions with integral coefficients, so
      integrality of the remaining variables implies integrality of the
      eliminated ones);
    + {b bounds} folded from singleton rows (rounded to integers when
      [integer] holds), and variables fixed where their bounds meet;
    + removal of {b empty}, {b duplicate}, {b redundant} and {b forcing}
      rows (a forcing row pins every variable it mentions, e.g. a loop
      bound of zero);
    + early {b infeasibility} detection (conflicting bounds, unsatisfiable
      rows, and — in integer mode — variables fixed to fractional values).

    All arithmetic is exact ({!Ipet_num.Rat}), every surviving row keeps its
    [origin] provenance label, and the transformation is reversible: the
    returned postsolve closure rebuilds a full assignment over the original
    variables from any solution of the reduced problem, so the objective
    value, the witness block counts and the binding-constraint report of the
    analysis are unchanged.

    No reduction reads the objective. The fixpoint ({!fixpoint}) therefore
    runs over the constraints alone, once, and each objective is reduced
    from it afterwards ({!emit}): the analysis presolves each constraint set
    once and solves both its maximization (WCET) and its minimization
    (BCET) from that one fixpoint. *)

open Ipet_num

type stats = {
  vars_before : int;
  vars_after : int;
  constrs_before : int;
  constrs_after : int;
  rounds : int;        (** fixpoint iterations until nothing changed *)
  substituted : int;   (** variables eliminated via an equality row *)
  fixed : int;         (** variables pinned to a constant *)
}

type reduction = {
  problem : Lp_problem.t;  (** the reduced, equivalent problem *)
  postsolve : (string * Rat.t) list -> (string * Rat.t) list;
      (** maps an assignment of the reduced problem (zero-valued variables
          may be omitted) to a full assignment over the original variables,
          zero values filtered, sorted by name. A variable the reduced
          problem lost takes its definition's value if presolve
          eliminated it, else its folded lower bound (0 without one);
          names that are not variables of the original problem are
          ignored. It works on the fixpoint's columns: it looks up a
          name only for each entry of the assignment, then makes one
          pass over the definitions and one over the original
          variables. *)
  stats : stats;
}

type outcome =
  | Reduced of reduction
  | Proved_infeasible of { stats : stats; reason : string }
      (** the problem has no (integer) solution; [reason] names the
          conflicting row or variable *)

type fixpoint
(** One constraint set after the presolve fixpoint: its surviving rows,
    explicit bounds and recorded definitions, or the proof that it is
    infeasible. It holds no objective. *)

val fixpoint : ?integer:bool -> ?lift:bool -> Lp_problem.constr list -> fixpoint
(** [fixpoint constraints] runs every reduction over [constraints] until
    nothing changes. [integer] is as in {!run}. With [lift] (default
    [false]) it also records what the dual lift of each {!emit} reads;
    without it every lift is [None]. The record is kept for the
    fixpoint's lifetime and costs 5–8% of its time (generated programs
    of 140–160 ILP variables), so a caller that will not certify leaves
    it off. *)

type lift = Rat.t array -> Rat.t array option
(** The dual postsolve of a fixpoint made with [~lift:true]: multipliers
    on the reduced problem's constraints to multipliers on the original
    constraints, both in the convention of {!Simplex.result}'s [duals],
    with the same bound and still covering every objective coefficient.
    The reductions are reversed newest first, each with the coefficients
    its rows had when it happened (the fixpoint records them):
    - a dropped redundant, duplicate, empty or constant row gets 0;
    - a re-emitted bound passes its multiplier, divided by the
      coefficient, to the singleton row it came from;
    - the defining row of an eliminated variable takes the multiplier
      that zeroes that variable's reduced cost;
    - a fixed variable passes its reduced cost to the rows that fixed it:
      a singleton equality, a forcing row, or the two bounds that
      pinched it;
    - a guard row ([e >= 0] for an eliminated variable) is that
      variable's non-negativity.

    [None] when a bound presolve rounded carries a nonzero multiplier:
    the rounded row is stronger than the original rows, so no multiplier
    on them reproduces its bound. *)

val emit : fixpoint -> Lp_problem.direction -> Linexpr.t -> outcome * lift
(** [emit fp direction objective] is the presolve of the problem
    [direction objective] over [fp]'s constraints, with its dual lift.
    It replays the recorded definitions into [objective], and re-emits
    the explicit bound rows of the variables that are live in the
    surviving rows or in that objective. The lift of a
    [Proved_infeasible] outcome is always [None]. *)

val run : ?integer:bool -> Lp_problem.t -> outcome
(** [run problem] presolves [problem]. With [integer] (the default) the
    reductions assume every variable ranges over non-negative integers, as
    in {!Ilp.solve}: derived bounds are rounded and a variable forced to a
    fractional value proves infeasibility. With [~integer:false] only
    relaxation-safe reductions are applied. [run p] is the outcome of one {!emit} of
    [fixpoint p.constraints]. *)
