(** Revised simplex over the sparse instance form, in exact rationals.

    Every variable is non-negative and has no upper bound; a nonbasic
    column always sits at 0. Two entry points:

    - {!solve_primal}: two-phase primal simplex from the
      all-slack/artificial basis. It replays the dense tableau's
      trajectory pivot for pivot — same Bland entering rule (smallest
      column with positive reduced cost), same min-ratio leaving rule
      with ties broken by smallest basic column, same
      drive-artificials-out step — so optimal assignments (not just
      values) are bit-identical to the historical dense solver. The basis
      factorization is rebuilt every 64 updates.

    - {!solve_at}: primal simplex started at a caller-supplied feasible
      point (a solver's witness) instead of from the all-artificial
      basis, returning the row prices of its final basis; for the
      certificate producer, whose witness is already an optimal vertex
      of the LP it proves.

    All pivot selection is deterministic, so both entry points are pure
    functions of their arguments. *)

open Ipet_num

type solution = {
  value : Rat.t;            (** maximized objective, excluding any constant *)
  xstruct : Rat.t array;    (** value of each structural column *)
}

type verdict = Optimal of solution | Infeasible | Unbounded

type run = {
  verdict : verdict;
  pivots : int;
      (** basis changes, phases 1 and 2 combined; for {!solve_at} from
          the given point, the phase-2 basis changes only (building the
          start basis is a factorization, not a pivot) *)
  refactors : int;
      (** basis factorizations performed; {!solve_at} from the given
          point counts the factorization of its start basis *)
}

val solve_primal : Sparse.t -> cost:Rat.t array -> run
(** Maximize [cost] (length [nstruct], structural columns only; slack
    costs are zero) over the instance. *)

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
(** Maximize [cost] (as for {!solve_primal}) starting at [start], the
    value of each structural column (length [nstruct]). The basis of
    [start] is factored in one sparse elimination pass
    ({!Basis.eliminate}), without pricing or ratio tests. The candidate
    columns are the positive columns (structural, then slack/surplus) in
    column order, then the zero-valued real columns in column order, until
    every row is covered. Each is pivoted on the smallest unpivoted row
    where its image is nonzero and becomes that row's basic column, or is
    skipped when it depends on the columns already taken. A row no real
    column covers is redundant and keeps its artificial, basic at zero:
    no real column has a nonzero entry there, so unlike after phase 1
    there is nothing to drive out.
    [B⁻¹b] is then recomputed and checked non-negative. The Bland phase 2
    of {!solve_primal} finishes from there; the row prices are the
    pricing vector of its last iteration, so they cost no extra BTRAN.

    When [start] is negative, violates a row, or is not a vertex (its
    positive columns are linearly dependent, so the pass skips one), the
    solve falls back to the cold {!solve_primal} route and [started] is
    [false]. [pivots] and [refactors] count the route that finished. The
    result is a pure function of the arguments either way. *)
