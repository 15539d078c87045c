(** LP/ILP problem representation.

    A problem maximizes or minimizes a linear objective subject to linear
    constraints, with every variable implicitly non-negative — the natural
    form for IPET flow variables (execution counts are counts). *)

open Ipet_num

type relation = Le | Ge | Eq

type constr = {
  expr : Linexpr.t;  (** interpreted as [expr rel 0] *)
  rel : relation;
  origin : string;  (** provenance label for diagnostics and reports *)
}

val constr : ?origin:string -> Linexpr.t -> relation -> constr

val le : ?origin:string -> Linexpr.t -> Linexpr.t -> constr
(** [le a b] is the constraint [a <= b]. *)

val ge : ?origin:string -> Linexpr.t -> Linexpr.t -> constr
val eq : ?origin:string -> Linexpr.t -> Linexpr.t -> constr

type direction = Maximize | Minimize

type t = {
  direction : direction;
  objective : Linexpr.t;
  constraints : constr list;
}

val make : direction -> Linexpr.t -> constr list -> t

val variables : t -> string list
(** All variables mentioned anywhere, sorted, without duplicates. *)

val num_variables : t -> int
val num_constraints : t -> int

(** The one numbering of a constraint list, read by presolve, the simplex
    and the certificate checker: each variable the rows name is a column,
    its rank among those names in name order, and each row is held as
    its columns and coefficients, in column order. A table is immutable
    to its readers. *)
module Columns : sig
  type t

  val make : constr list -> t
  val constraints : t -> constr list
  val count : t -> int
  val name : t -> int -> string

  val find : t -> string -> int option
  (** [None] for a name no row has. *)

  val rows : t -> int
  val row : t -> int -> constr
  (** The [i]th constraint of the list, [0]-based. *)

  val fold_row : (int -> Rat.t -> 'a -> 'a) -> t -> int -> 'a -> 'a
  (** [fold_row f t i] folds [f column coefficient] over row [i]'s terms,
      in column order. *)

  val objective : t -> Linexpr.t -> Rat.t array * (string * Rat.t) list
  (** An objective's coefficient of each column, in a fresh array, and
      its terms on the variables no row names, sorted by name. *)
end

val satisfies : (string -> Rat.t) -> constr -> bool
(** Does the assignment satisfy the constraint? *)

val feasible : (string -> Rat.t) -> t -> bool
(** Does the assignment satisfy every constraint and non-negativity of every
    variable of the problem? *)

val pp_constr : Format.formatter -> constr -> unit
val pp : Format.formatter -> t -> unit
