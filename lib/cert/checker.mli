(** The trusted certificate checker.

    Validates a {!Certificate.t} against the original (pre-presolve)
    problem in exact rational arithmetic, using nothing but the problem
    representation ({!Ipet_lp.Linexpr}, {!Ipet_lp.Lp_problem.Columns},
    {!Ipet_num.Rat} and {!Certificate}'s digest) — no
    {!Ipet_lp.Revised}, {!Ipet_lp.Dense} or {!Ipet_lp.Presolve} — so a
    bug in the solver chain cannot also hide in its own audit.

    What a [Valid] verdict establishes, for a [Maximize] problem (all
    comparisons are exact; [Minimize] is symmetric):

    + the certificate is about this problem: the digest matches;
    + the duals are a weak-duality proof: every multiplier has the sign
      its constraint's relation requires, covers every variable's
      objective coefficient, and the implied bound
      [Σ yᵢ·rhsᵢ + objective constant] equals the certificate's
      [dual_bound] — hence no feasible point (integral or not) exceeds
      [dual_bound];
    + the witness is a real execution-count assignment: non-negative,
      integral, satisfying every structural/loop-bound/functionality
      constraint, with objective exactly [bound];
    + therefore [bound <= optimum <= dual_bound]; when [gap = 0] the
      reported bound is the exact ILP optimum, not merely safe. *)

open Ipet_num
open Ipet_lp

type verdict =
  | Valid of { gap : Rat.t }
      (** [gap = |dual_bound - bound|]; zero means the bound is proved
          optimal *)
  | Invalid of string list  (** every failed check, not just the first *)

val check : Lp_problem.t -> Certificate.t -> verdict
(** [check p cert] is [check_view (view (Lp_problem.Columns.make
    p.constraints)) p.direction p.objective cert]: a fresh view, used
    once. *)

(** {1 A constraint set, read once}

    The WCET and the BCET problem of one constraint set share its rows
    and differ only in direction and objective. A [view] reads the rows
    through their numbering ({!Lp_problem.Columns.t}) and renders their
    part of the digested text ({!Certificate.rows_text}) once. For each
    direction it keeps the last objective it was asked about, keyed on
    physical identity (every part of a {!Lp_problem.t} is immutable),
    with that problem's digest and its coefficient per column. So the
    two directions' certificates of a set render its rows once and hash
    once each, however often they are emitted and checked.

    Trust: the column table is the one part of a view a producer may
    share. It is built from the constraint list alone and is immutable
    to its readers, and the digest text is rendered here from the same
    list. {!check_view} on a view that has served any number of earlier
    checks gives exactly the verdict, reasons and order included, that
    {!check} gives on [Lp_problem.make direction objective
    constraints]. *)

type view

val view : Lp_problem.Columns.t -> view

val digest : view -> Lp_problem.direction -> Linexpr.t -> string
(** [digest (view (Lp_problem.Columns.make cs)) direction objective] is
    [Certificate.digest_problem (Lp_problem.make direction objective cs)],
    rendered and hashed at most once per direction and objective. *)

val check_view :
  view -> Lp_problem.direction -> Linexpr.t -> Certificate.t -> verdict
(** [check_view v direction objective cert] checks [cert] against the
    problem of [v]'s constraints with that direction and objective. The
    coverage sums and the witness live in arrays over [v]'s columns. *)

val gap_closed : verdict -> bool
(** [Valid] with a zero gap. *)

val pp_verdict : Certificate.t -> Format.formatter -> verdict -> unit
(** [pp_verdict cert] prints the verdict on [cert]. With the gap open it
    names [cert]'s [dual_bound], the number the duals prove: for a
    [Maximize] problem the witness value is only a lower bound on the
    optimum, and no feasible point exceeds [dual_bound]. *)
