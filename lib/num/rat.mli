(** Exact rational numbers.

    Values are kept normalized: the denominator is strictly positive and
    coprime with the numerator. This is the scalar field of the simplex
    solver and of the certificate checker, so every arithmetic operation is
    exact.

    A value whose numerator and denominator both have magnitude at most
    [2^30] is held as two native ints and computed on with native
    arithmetic; any other value is held over {!Bigint}. Which of the two
    holds a value depends on the value alone, so no result (in particular
    no printed form) depends on how a value was reached. Only {!floor},
    {!ceil}, {!of_bigint}, {!make}, {!num} and {!den} deal in {!Bigint}. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den] = [num/den]. @raise Division_by_zero if [den = 0]. *)

val of_bigint : Bigint.t -> t

val num : t -> Bigint.t
val den : t -> Bigint.t

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

val is_integer : t -> bool

val floor : t -> Bigint.t
(** Largest integer [<=] the rational. *)

val ceil : t -> Bigint.t
(** Smallest integer [>=] the rational. *)

val to_int : t -> int
(** @raise Failure if not an integer or out of native range. *)

val to_float : t -> float
val to_string : t -> string
(** ["n"] for an integer, ["n/d"] otherwise, in decimal with a leading
    ['-'] on a negative value. *)

val add_to_buffer : Buffer.t -> t -> unit
(** [add_to_buffer buf q] appends [to_string q] to [buf], writing native
    values digit by digit with no intermediate string. *)

val of_string : string -> t
(** Accepts ["p"], ["p/q"], and decimal ["p.q"] forms with optional sign.
    @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit

(** Infix operators, intended for local [open Rat.Infix]. *)
module Infix : sig
  val ( +/ ) : t -> t -> t
  val ( -/ ) : t -> t -> t
  val ( */ ) : t -> t -> t
  val ( // ) : t -> t -> t
  val ( =/ ) : t -> t -> bool
  val ( </ ) : t -> t -> bool
  val ( <=/ ) : t -> t -> bool
  val ( >/ ) : t -> t -> bool
  val ( >=/ ) : t -> t -> bool
end
