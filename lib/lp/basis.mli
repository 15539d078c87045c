(** Product-form (eta-file) factorization of the simplex basis inverse.

    The basis inverse is held as [B⁻¹ = P · Eₖ⁻¹ ⋯ E₁⁻¹] where each
    [Eᵢ] is an eta matrix (identity except for one column) and [P] a row
    permutation introduced by refactorization. Pivots append one eta;
    {!refactor} rebuilds the whole product by sparse Gaussian elimination
    over the current basis columns (processed sparsest-first), bounding
    both the eta file length and the accumulated fill. {!eliminate}
    builds a factorization the same way, one column at a time, from
    columns whose basis rows are not known in advance: it picks each
    column's row itself. Both run one kernel per column: load it, run it
    through the etas built so far, pivot it on the smallest unpivoted row
    where its image is nonzero, and push that eta.

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

val eliminate : t -> Sparse.col -> int option
(** [eliminate t c] extends a factorization built by {!create} and
    [eliminate] calls only. The basis it represents holds every column
    eliminated so far, each in the row it was pivoted on, and the unit
    column in every row not pivoted yet. [eliminate t c] runs [c]
    through the etas so far and pivots it on the smallest unpivoted row
    where its image is nonzero: [c] becomes that row's basic column and
    [Some row] is returned, with no row permutation. When the image is
    zero on every unpivoted row, [c] depends on the columns already
    eliminated, nothing changes and the result is [None]. *)

val ftran : t -> Rat.t array -> unit
(** [ftran t v] overwrites dense [v] with [B⁻¹ v]. *)

val btran : t -> Rat.t array -> unit
(** [btran t y] overwrites dense [y] with [B⁻ᵀ y]. *)

val append : t -> pivot_row:int -> alpha:Rat.t array -> unit
(** Rank-one basis change: the column basic in row [pivot_row] is
    replaced by a column whose current FTRAN image is [alpha]
    (so [alpha.(pivot_row)] must be nonzero). [alpha] is read, not
    retained. *)
