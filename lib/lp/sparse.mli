(** Sparse-column form of an LP instance.

    The column layout is exactly the dense tableau's: columns
    [0..nstruct-1] are the structural variables in [vars] order, then one
    slack/surplus column per inequality row (in row order), then one
    artificial column per [Ge]/[Eq] row (in row order). Rows are
    normalized so the right-hand side is non-negative (a row with a
    negative rhs is negated and its relation flipped), which makes the
    initial basis — slack for [Le] rows, artificial for [Ge]/[Eq] rows —
    the identity matrix at a feasible point when all variables sit at
    their lower bound 0.

    IPET constraint matrices are flow matrices: a handful of nonzeros per
    column regardless of program size, which is what the revised simplex
    exploits. *)

open Ipet_num

type col = {
  rows : int array;      (** row indices, strictly increasing *)
  vals : Rat.t array;    (** matching nonzero coefficients *)
}

type t = {
  nrows : int;
  nstruct : int;         (** structural columns: [0..nstruct-1] *)
  art_start : int;       (** columns [>= art_start] are artificial *)
  ncols : int;
  cols : col array;      (** length [ncols] *)
  rhs : Rat.t array;     (** length [nrows], all non-negative *)
  row_basis : int array; (** initial basic column of each row *)
  vars : string array;   (** structural variable names, index = column *)
}

val build : vars:string list -> Lp_problem.t -> t
(** [vars] must be {!Lp_problem.variables} of the problem or a sorted
    superset, exactly as for [Simplex.solve]. *)

val col_dot : t -> Rat.t array -> int -> Rat.t
(** [col_dot t y j] is the dot product of dense vector [y] (length
    [nrows]) with column [j]. *)
