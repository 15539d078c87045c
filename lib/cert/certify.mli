(** Certificate production.

    A certificate's duals are the row prices of the solve that found the
    bound. The branch and bound's root relaxation ends in an optimal
    basis of the {e presolved} problem, and {!Ipet_lp.Presolve.lift}
    carries its row prices back through presolve's recorded reductions
    to multipliers on the original rows ({!Ipet_lp.Ilp.stats}'s
    [root_duals]). When the bound those multipliers imply equals the
    reported bound, [emit] packages them with the witness and the problem
    digest and solves nothing: the certificate is [Lifted]. That is the
    common case, because the first LP relaxation of an IPET problem is
    integral (the paper's Section VI), so its optimum is the bound.

    Otherwise [emit] falls back: it solves the LP relaxation of the
    original problem again, cold ({!Ipet_lp.Simplex.solve}), and takes
    the duals of its optimal basis. That happens in three cases:
    - no root prices were given ({!certify});
    - the lift gave up. Presolve rounds bounds to integers for ILPs, so a
      rounded bound row is strictly stronger than the original row: its
      price proves a bound about the reduced problem only, and no
      multiplier on the original rows reproduces it. The lift therefore
      gives up when a rounded bound has a nonzero price;
    - the lifted bound differs from the reported one: the root
      relaxation was fractional and the branch and bound closed the gap.

    The re-solve's [dual_bound] is the original LP relaxation's optimum,
    so its certificate may keep a gap (for instance after a rounded
    bound). A gap-closed certificate has the same [bound], [dual_bound],
    [witness] and [digest] whichever route produced it; only [duals]
    depends on the route and the basis it ends in. *)

open Ipet_num
open Ipet_lp

type source =
  | Lifted  (** the root prices lifted through presolve; no solve *)
  | Cold    (** the cold re-solve of the original LP relaxation *)

type emitted = {
  cert : Certificate.t;
  pivots : int;  (** simplex pivots of the re-solve; 0 when [Lifted] *)
  source : source;
}

val emit :
  ?root_duals:Rat.t array ->
  ?view:Checker.view ->
  Lp_problem.t ->
  witness:(string * Rat.t) list ->
  bound:Rat.t ->
  (emitted, string) result
(** [witness] is a solver assignment for [problem] (zeros allowed; it is
    canonicalized), [bound] its objective value. [root_duals], when
    given, are multipliers on [problem]'s constraints from the solve that
    found [bound] ({!Ipet_lp.Ilp.stats}'s [root_duals]); they are used as
    they are when they imply exactly [bound], and the LP is re-solved
    otherwise. [view], when given, must be {!Checker.view} of the
    numbering of [problem]'s constraints; the digest is then {!Checker.digest}'s, which renders
    and hashes the rows once for every certificate emitted or checked on
    that view. Fails when the re-solved LP relaxation is infeasible or
    unbounded — neither can happen for a problem whose ILP was solved to
    optimality. The certificate is a pure function of the arguments. *)

val certify :
  Lp_problem.t ->
  witness:(string * Rat.t) list ->
  bound:Rat.t ->
  (Certificate.t, string) result
(** {!emit} without root prices or statistics: always the re-solve. *)
