(** Product-form (eta-file) factorization of the simplex basis inverse.

    The basis inverse is held as [B⁻¹ = P · Eₖ⁻¹ ⋯ E₁⁻¹] where each
    [Eᵢ] is an eta matrix (identity except for one column) and [P] a row
    permutation introduced by refactorization. Pivots append one eta;
    {!refactor} rebuilds the whole product by sparse Gaussian elimination
    over the current basis columns (processed sparsest-first), bounding
    both the eta file length and the accumulated fill: each column is
    loaded, run through the etas built so far, pivoted on the smallest
    unpivoted row where its image is nonzero, and that eta is pushed.

    All arithmetic is exact rational, so the representation is only about
    speed, never about accuracy: FTRAN/BTRAN results are bit-identical to
    what a dense tableau would produce. *)

open Ipet_num

type t

exception Singular
(** Raised by {!refactor} when the supplied columns are linearly
    dependent (not a basis). *)

val create : int -> t
(** [create m] represents the identity basis of dimension [m]. *)

val refactor : t -> col_of:(int -> Sparse.col) -> basis:int array -> unit
(** Rebuild the factorization from scratch for the basis matrix whose
    column in row [i] is [col_of basis.(i)]. *)

val ftran : t -> Rat.t array -> unit
(** [ftran t v] overwrites dense [v] with [B⁻¹ v]. *)

val btran : t -> Rat.t array -> unit
(** [btran t y] overwrites dense [y] with [B⁻ᵀ y]. *)

val append : t -> pivot_row:int -> alpha:Rat.t array -> unit
(** Rank-one basis change: the column basic in row [pivot_row] is
    replaced by a column whose current FTRAN image is [alpha]
    (so [alpha.(pivot_row)] must be nonzero). [alpha] is read, not
    retained. *)
