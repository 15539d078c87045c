(** Revised simplex over the sparse instance form, in exact rationals.

    Three entry points:

    - {!solve_primal}: two-phase bounded-variable primal simplex from the
      all-slack/artificial basis. With no upper bounds it replays the
      dense tableau's trajectory pivot for pivot — same Bland entering
      rule (smallest column with favourable reduced cost), same min-ratio
      leaving rule with ties broken by smallest basic column, same
      drive-artificials-out step — so optimal assignments (not just
      values) are bit-identical to the historical dense solver.

    - {!solve_dual}: bounded-variable dual simplex warm-started from a
      caller-supplied basis snapshot, for branch-and-bound children whose
      only change from the parent is tightened variable bounds: the
      parent's optimal basis stays dual feasible, so no phase 1 is
      needed. Variable bounds never become explicit rows.

    - {!solve_at}: primal simplex started at a caller-supplied feasible
      point (a solver's witness) instead of from the all-artificial
      basis, returning the row prices of its final basis; for the
      certificate producer, whose witness is already an optimal vertex
      of the LP it proves.

    All pivot selection is deterministic, so both entry points are pure
    functions of their arguments. *)

open Ipet_num

type vstatus = Basic | Lower | Upper

type snapshot = {
  sbasis : int array;       (** basic column of each row *)
  sstatus : vstatus array;  (** status of every column *)
}

type solution = {
  value : Rat.t;            (** maximized objective, excluding any constant *)
  xstruct : Rat.t array;    (** value of each structural column *)
  snapshot : snapshot;      (** final basis, for warm-starting children *)
}

type verdict = Optimal of solution | Infeasible | Unbounded

type run = {
  verdict : verdict;
  pivots : int;             (** basis changes, phases 1 and 2 combined *)
  refactors : int;          (** basis refactorizations performed *)
}

exception Stuck
(** The dual simplex hit its iteration cap, the warm basis was singular,
    or the warm snapshot was inconsistent with the problem's bounds (a
    leaving basic flagged as above an upper bound it does not have); the
    caller should fall back to a cold solve. *)

val solve_primal :
  ?upper:Rat.t option array ->
  ?refactor_every:int ->
  Sparse.t -> cost:Rat.t array -> run
(** Maximize [cost] (length [nstruct], structural columns only; slack
    costs are zero) over the instance. [upper], when given, has length
    [nstruct] and supplies finite upper bounds for structural variables
    (handled in the ratio test, never as rows); lower bounds are 0. *)

type priced = {
  run : run;
  prices : Rat.t array;
      (** [y = B⁻ᵀc_B] of the final basis, in row order of the instance;
          meaningful only when [run.verdict] is [Optimal] *)
  started : bool;
      (** [true] when the solve began at the given point, [false] when
          it fell back to the cold {!solve_primal} route *)
}

val solve_at : Sparse.t -> cost:Rat.t array -> start:Rat.t array -> priced
(** Maximize [cost] (as for {!solve_primal}, no upper bounds) starting at
    [start], the value of each structural column (length [nstruct]).
    The basis of [start] is built on the identity basis without pricing
    or ratio tests: each positive column (structural or slack) is
    pivoted into a row whose basic column is zero at [start], [B⁻¹b] is
    recomputed and checked non-negative, and the artificials left basic
    at zero are swapped for zero-valued columns. The Bland phase 2 of
    {!solve_primal} then finishes from there; the row prices are the
    pricing vector of its last iteration, so they cost no extra BTRAN.

    When [start] is negative, violates a row, or is not a vertex (its
    positive columns are linearly dependent), the solve falls back to
    the cold {!solve_primal} route and [started] is [false]. [pivots]
    and [refactors] count the route that finished. The result is a pure
    function of the arguments either way. *)

val solve_dual :
  ?refactor_every:int ->
  ?max_iters:int ->
  Sparse.t -> cost:Rat.t array ->
  lower:Rat.t array -> upper:Rat.t option array ->
  warm:snapshot -> run
(** Maximize [cost] subject to [lower.(j) <= x_j <= upper.(j)] for
    structural columns, starting from [warm] (a dual-feasible basis for
    this cost, typically the parent node's optimal basis). Returns
    [Infeasible] when the bounds cut off the feasible region.
    @raise Stuck when the warm start cannot be completed; correctness
    requires the caller to re-solve cold. *)
