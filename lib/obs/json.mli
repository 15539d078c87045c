(** The one JSON codec: a value type, a deterministic printer and a
    parser, on the stdlib alone. Every JSON document the tools write or
    read goes through it.

    The printer adds no whitespace and keeps object fields in the order
    given, so documents built from the same data are byte-identical (the
    analysis cache's cold/warm guarantee relies on it). One number rule:
    an {!Int} prints exactly, a finite {!Float} in the shortest of
    [%.15g]/[%.17g] that reads back as the same float, a non-finite one
    as [null].

    Printing and parsing are inverse except on integral floats, which
    print as integers: [Float 3.0] prints [3] and reads back as [Int 3],
    so a reader of a float must accept {!Int} too ({!to_float}). For
    them printing is a fixpoint: [to_string] of the parsed [to_string v]
    is [to_string v] (negative zero aside: [-0] reads back as [Int 0]).
    Integers stay distinct from floats so execution counts round-trip
    exactly through cache files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** One JSON document; trailing whitespace allowed, anything else after
    the value is an error. Numbers without [.], [e] or [E] parse as
    {!Int}. Nesting depth is capped (malformed input cannot blow the
    stack). *)

val to_string : t -> string
(** Compact rendering (no added whitespace), object fields in order. *)

(** {1 Accessors} (all total; [None] on shape mismatch) *)

val member : string -> t -> t option
(** Field of an {!Obj}; [None] for absent fields and non-objects. *)

val to_str : t -> string option
val to_int : t -> int option

val to_float : t -> float option
(** A {!Float}, or an {!Int} as a float: what a printed float reads back
    as. *)

val to_bool : t -> bool option
val to_list : t -> t list option
