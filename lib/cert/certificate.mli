(** Proof-carrying bound certificates.

    A certificate makes a reported WCET/BCET bound auditable without
    re-running the solver: it packages exact-rational dual multipliers
    (one per constraint of the original, pre-presolve problem), the
    integral witness assignment, and a digest of the constraint set the
    proof is about. {!Checker.check} validates all of it against the
    problem in exact arithmetic; nothing in this module or the checker
    depends on the simplex implementations.

    Trusted base: the JSON codec below is this library's only use of
    [ipet_obs], whose {!Ipet_obs.Json} depends on nothing but [unix];
    {!Checker} itself uses only {!Ipet_lp.Linexpr} and {!Ipet_num.Rat}. *)

open Ipet_num
open Ipet_lp

type t = {
  direction : Lp_problem.direction;
  bound : Rat.t;        (** the reported extreme: the witness objective *)
  dual_bound : Rat.t;
      (** what the duals prove: an upper bound on every feasible
          objective for [Maximize], a lower bound for [Minimize] *)
  duals : Rat.t array;
      (** one multiplier per constraint, in the problem's constraint
          order *)
  witness : (string * Rat.t) list;
      (** the integral optimal assignment, nonzeros only, sorted by
          variable name; absent variables are zero *)
  digest : string;
      (** MD5 hex of {!digest_problem} for the certified problem *)
}

val digest_problem : Lp_problem.t -> string
(** Canonical digest of direction, objective, and every constraint
    (coefficients, relation, origin) — computed from the problem
    representation only, so producer and checker agree on what exactly
    is being certified. The digested text is a head line
    ([ipet-cert problem v1]), a line with the direction and the
    objective, and then {!rows_text} of the constraints. *)

val rows_text : Lp_problem.constr list -> string
(** The constraints' part of the digested text: one line per constraint,
    its terms in variable order, constant, relation and origin. It does
    not depend on the direction or the objective, so one rendering
    serves both of a constraint set's problems. *)

val digest_rows :
  Lp_problem.direction -> Linexpr.t -> rows:string -> string
(** [digest_rows direction objective ~rows:(rows_text cs)] is
    [digest_problem (Lp_problem.make direction objective cs)], rendering
    only the head and the objective. *)

val witness_of_assignment : (string * Rat.t) list -> (string * Rat.t) list
(** Drop zeros, sort by name: the canonical witness form stored in a
    certificate. *)

val to_json : t -> Ipet_obs.Json.t
(** The one encoding of a certificate, written by [--cert-out] and kept
    in every serve cache entry: [{"version":1,"direction":"max"|"min",
    "bound","dual_bound","digest","witness":{var: value},"duals":[...]}],
    keys in that order, every rational a {!Ipet_num.Rat.to_string}
    string. *)

val of_json : Ipet_obs.Json.t -> (t, string) result
(** The inverse of {!to_json}. A missing or mistyped field, a version
    other than 1, an unknown direction or a malformed rational is an
    [Error]; it never raises. Whether the certificate proves anything is
    {!Checker.check}'s question (a repeated witness name, for one, is
    rejected there). *)
