(** Hierarchical wall-clock spans.

    A span engine keeps a stack of open spans and a buffer of completed
    ones. Timestamps are microseconds since the engine's origin, read from
    an injectable clock and {e clamped to be monotonic}: a reading that
    goes backwards (NTP step, coarse clock) is raised to the previous
    reading, so exported traces always have non-decreasing, non-negative
    timestamps and durations.

    The engine itself is cheap but not free; {!Obs.span} is the user-facing
    entry point and bypasses the engine entirely when observability is
    disabled. *)

type completed = {
  name : string;
  args : (string * string) list;  (** free-form key/value annotations *)
  start_us : int;                 (** microseconds since the engine origin *)
  dur_us : int;
  depth : int;                    (** 0 for top-level spans *)
  tid : int;                      (** the engine's trace row id *)
}

type t

val create : ?origin:float -> ?tid:int -> clock:(unit -> float) -> unit -> t
(** [clock] returns seconds (any epoch; only differences are used).
    [origin] (default [clock ()]) anchors timestamp zero — {!Obs} passes
    one shared origin to its main engine and every track engine so their
    spans line up on a common axis. [tid] (default [0]) stamps this
    engine's completed spans. *)

val origin : t -> float

val reset : ?origin:float -> t -> unit
(** Drop all open and completed spans and re-anchor the origin (to
    [origin] when given, the current clock otherwise). *)

val enter : t -> ?args:(string * string) list -> string -> unit
val exit_ : t -> unit
(** Close the innermost open span. No-op on an empty stack. *)

val depth : t -> int
(** Number of currently open spans. *)

val completed : t -> completed list
(** Completed spans in completion order (children precede parents). *)

val totals : completed list -> (string * (int * int)) list
(** Aggregate by span name: [(name, (count, total_us))], sorted by name.
    Nested self-recursion counts each completion separately. *)

val to_json : completed -> Json.t
(** The wire form of a span in the daemon's [trace_spans]:
    [{"name","start_us","dur_us","depth"}], plus ["args"] when there are
    any; the tid is not sent. *)

val of_json : Json.t -> completed option
(** Inverse of {!to_json}, with [tid] 0; [None] when a required field is
    missing or mistyped. Non-string argument values are dropped. *)
