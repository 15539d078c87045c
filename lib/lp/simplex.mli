(** Exact-rational LP solving — the front door to the sparse revised
    simplex ({!Revised}).

    Solves {!Lp_problem.t} instances (all variables implicitly
    non-negative). Bland's anti-cycling rule guarantees termination, and
    all arithmetic is exact, so the solver either returns a true optimum
    or a correct infeasible/unbounded verdict. The pivot trajectory is
    identical to the historical dense tableau ({!Dense}), so results —
    including the particular optimal vertex returned — are unchanged;
    only the cost per pivot is: the constraint matrix is held as sparse
    columns and the basis inverse as an eta-file factorization with
    periodic refactorization. *)

open Ipet_num

type result =
  | Optimal of {
      value : Rat.t;
      assignment : (string * Rat.t) list;
      duals : Rat.t array;
    }
      (** Optimal objective value and one optimal vertex; variables absent
          from [assignment] are zero. [duals] are the optimal basis's row
          prices, one per constraint in order, as a duality certificate
          states them: for [Maximize], [>= 0] on
          [Le] rows and [<= 0] on [Ge] rows, covering every objective
          coefficient, and [Σ dualᵢ·(-constantᵢ)] plus the objective's
          constant is [value] ([Minimize] reverses the inequalities). *)
  | Infeasible
  | Unbounded

val solve : ?pivots:int ref -> ?refactors:int ref -> Lp_problem.t -> result
(** [solve problem] numbers the problem's rows ({!Lp_problem.Columns}) and
    solves over those columns; a variable only the objective names takes
    0, or makes a feasible problem [Unbounded] when it would raise the
    objective.

    [pivots], when given, is incremented by the number of simplex pivots
    (basis changes) this call performed (phase 1 and 2 combined);
    [refactors] likewise by the number of basis refactorizations. *)

val assignment_env : (string * Rat.t) list -> string -> Rat.t
(** Turn an assignment into a total environment (absent variables are 0).
    Backed by a hash table built once, so lookups are O(1) — this closure
    is hot in postsolve and witness checking. *)

