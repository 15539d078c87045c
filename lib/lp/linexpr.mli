(** Linear expressions [c + Σ aᵢ·xᵢ] over named variables with exact
    rational coefficients. The building block of LP/ILP problems and of the
    IPET structural/functionality constraints. *)

open Ipet_num

type t

val zero : t
val const : Rat.t -> t
val of_int : int -> t

val var : ?coeff:Rat.t -> string -> t
(** [var x] is the expression [1·x]; [var ~coeff x] is [coeff·x]. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rat.t -> t -> t

val coeff : t -> string -> Rat.t
(** Coefficient of a variable, [Rat.zero] when absent. *)

val constant : t -> Rat.t

val vars : t -> string list
(** Variables with non-zero coefficient, sorted. *)

val fold_terms : (string -> Rat.t -> 'a -> 'a) -> t -> 'a -> 'a

val eval : (string -> Rat.t) -> t -> Rat.t
(** Evaluate under an assignment. *)

val is_const : t -> bool
val equal : t -> t -> bool

val hash : t -> int
(** A hash consistent with {!equal}: it depends on the terms and the
    constant only, not on how the expression was built. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Combinators for readable construction, e.g.
    [Infix.(var "x1" + int 2 * var "x2" - int 10)]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : int -> t -> t
  val int : int -> t
  val v : string -> t
end
