(** Process-wide observability: spans, metrics, and their export.

    The subsystem is {e disabled} by default: {!span} then runs its thunk
    with nothing but a flag test, so instrumented library code costs
    effectively nothing in production and fuzzing loops. The CLI enables
    it when [--trace-out]/[--metrics-out] is given; benchmarks enable it
    to harvest phase timings.

    One span engine (tid 0) plus any named tracks, and one global metrics
    registry, serve the whole process — instrumentation points in the
    libraries write here without any plumbing, and the sinks read from
    here at exit. The process is single-threaded, so nothing here is
    synchronized. {!reset} restarts everything (used per-benchmark and by
    tests).

    The clock is [Unix.gettimeofday], with monotonicity enforced by
    clamping (see {!Span}). *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans and metrics (enablement is unchanged). *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span when enabled, exception-safely;
    when disabled it is [f ()]. *)

val with_track : string -> (unit -> 'a) -> 'a
(** [with_track name f] runs [f] with spans redirected
    to the named track — a dedicated span engine rendered as its own
    thread row (tid >= 1000) in the trace export, labeled [name] via
    {!track_names}. Tracks nest (the previous redirection is restored on
    exit, exception-safely) and are reused by name, so a daemon can land
    every request's span tree on a per-request row of one shared trace.
    When disabled it is [f ()] — the same single-branch cost as {!span}. *)

val track_names : unit -> (int * string) list
(** The (tid, name) pairs of every track created so far, sorted by tid —
    feed to {!Trace_event.to_string}'s [track_names]. *)

val track_spans : string -> Span.completed list
(** Completed spans recorded on the named track, in completion order;
    [[]] for an unknown track. *)

val timed : (unit -> 'a) -> 'a * float
(** [f ()] and its wall time in seconds, measured with the spans' clock
    (works whether or not observability is enabled). *)

val spans : unit -> Span.completed list
(** Completed spans so far: the main engine's (tid 0), then each track's
    in ascending tid order, each engine's spans in completion order. *)

val span_totals : unit -> (string * (int * int)) list
(** {!Span.totals} of {!spans}. *)

val metrics : Metrics.t
(** The global registry. *)

(** {1 Convenience shorthands over the global registry} *)

val counter : ?labels:Metrics.labels -> string -> Metrics.counter
val add : ?labels:Metrics.labels -> string -> int -> unit
val set_gauge_int : ?labels:Metrics.labels -> string -> int -> unit
val observe : ?labels:Metrics.labels -> string -> float -> unit

(** {1 Re-exports} *)

module Span = Span
module Metrics = Metrics
module Sink = Sink
module Trace_event = Trace_event
module Diag = Diag
