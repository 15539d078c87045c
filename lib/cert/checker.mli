(** The trusted certificate checker.

    Validates a {!Certificate.t} against the original (pre-presolve)
    problem in exact rational arithmetic, using nothing but the problem
    representation — no {!Ipet_lp.Revised}, {!Ipet_lp.Dense} or
    {!Ipet_lp.Presolve} — so a bug in the solver chain cannot also hide
    in its own audit.

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

val gap_closed : verdict -> bool
(** [Valid] with a zero gap. *)

val pp_verdict : Certificate.t -> Format.formatter -> verdict -> unit
(** [pp_verdict cert] prints the verdict on [cert]. With the gap open it
    names [cert]'s [dual_bound], the number the duals prove: for a
    [Maximize] problem the witness value is only a lower bound on the
    optimum, and no feasible point exceeds [dual_bound]. *)
