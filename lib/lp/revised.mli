(** Revised simplex over the sparse instance form, in exact rationals.

    Every variable is non-negative and has no upper bound; a nonbasic
    column always sits at 0. {!solve_primal} is the two-phase primal
    simplex from the all-slack/artificial basis. It replays the dense
    tableau's trajectory pivot for pivot — same Bland entering rule
    (smallest column with positive reduced cost), same min-ratio leaving
    rule with ties broken by smallest basic column, same
    drive-artificials-out step — so optimal assignments (not just
    values) are bit-identical to the historical dense solver. The basis
    factorization is rebuilt every 64 updates. All pivot selection is
    deterministic, so the solve is a pure function of its arguments. *)

open Ipet_num

type solution = {
  value : Rat.t;            (** maximized objective, excluding any constant *)
  xstruct : Rat.t array;    (** value of each structural column *)
  prices : Rat.t array;
      (** [y = B⁻ᵀc_B] of the optimal basis, in row order of the
          instance: phase 2's last pricing vector, so it costs no extra
          BTRAN. [y·rhs = value], and no column has a positive reduced
          cost against it. *)
}

type verdict = Optimal of solution | Infeasible | Unbounded

type run = {
  verdict : verdict;
  pivots : int;  (** basis changes, phases 1 and 2 combined *)
  refactors : int;  (** basis factorizations performed *)
}

val solve_primal : Sparse.t -> cost:Rat.t array -> run
(** Maximize [cost] (length [nstruct], structural columns only; slack
    costs are zero) over the instance. *)
