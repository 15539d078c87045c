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

module Names : Set.S with type elt = string

val variables : t -> string list
(** All variables mentioned anywhere, sorted, without duplicates. Built
    in one pass; pass the list down (as {!Ilp.solve} does for its
    per-node LPs) rather than calling this repeatedly in hot paths. *)

val num_variables : t -> int
val num_constraints : t -> int

val satisfies : (string -> Rat.t) -> constr -> bool
(** Does the assignment satisfy the constraint? *)

val feasible : (string -> Rat.t) -> t -> bool
(** Does the assignment satisfy every constraint and non-negativity of every
    variable of the problem? *)

val pp_constr : Format.formatter -> constr -> unit
val pp : Format.formatter -> t -> unit
