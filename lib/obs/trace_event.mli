(** Chrome trace-event export.

    Renders completed spans as the JSON Trace Event Format that
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto} load
    directly: one complete ("ph":"X") event per span with microsecond
    [ts]/[dur] on the thread row of the engine that recorded it, plus
    process/thread metadata events (one thread row per tid present).
    Events are sorted by start timestamp, which is non-decreasing per
    engine by construction (see {!Span}). *)

val to_string :
  ?process_name:string ->
  ?track_names:(int * string) list ->
  Span.completed list ->
  string
(** The full trace document, [{"displayTimeUnit":...,"traceEvents":[...]}],
    printed by {!Json.to_string} on one line plus a final newline.
    [track_names] overrides the thread-row label for the given tids —
    {!Obs.track_names} supplies the per-request track labels; unlisted
    tids (in practice the single main engine, tid 0) are labelled
    ["main"]. *)
