(** The serve wire protocol, version 1.

    Transport is line-delimited JSON over a unix-domain socket: one request
    per line, one response line per request, in order. Every request is an
    object with ["v"] (protocol version, currently [1]) and ["op"], plus an
    optional ["id"] echoed verbatim in the response so clients can multiplex,
    and an optional ["trace"] string — a client-generated request id echoed
    verbatim in {e every} response, including errors, and used to tag the
    request's span track, flight-recorder event and access-log line. A
    request without ["trace"] is tagged [req-N] (N = server request count).

    Operations:
    - [hello] — handshake; returns server name, {!Version.version},
      protocol version and cache-key {!Key.schema};
    - [analyze] — ["source"] (MC program text, or an assembly listing when
      ["lang"] is ["asm"]), optional ["mach"] (machine-model id, [e32] by
      default; an unknown id is a [proto] error), optional ["annotations"]
      (annotation-file text: [root]/[loop]/[constr] lines), optional
      ["root"] override, optional ["options"] object: [use_cache] (default
      true), [timeout_ms], [first_miss] (first-miss refinement), [icache]
      [{size_bytes, line_bytes, miss_penalty}] (default the machine's own
      fetch configuration — the paper's i960KB cache for [e32]),
      [trace_spans] (default false — when true and span tracing is
      enabled on the server, the response carries the request's completed
      span tree as ["trace_spans"]). The response carries ["report"] and
      ["stats"], whose keys are, in order, the {!Incremental.stats}
      fields [units_total], [units_cached], [units_solved], [ilp_solves],
      [simplex_pivots], [certs_checked], [certs_rejected], then
      [wall_ms];
    - [stats] — server totals (requests, errors, certificate checks and
      rejections, flight-recorder event count) and cache occupancy
      (entries, bytes, cap, hits, misses, evictions, eviction bytes);
    - [metrics] — live registry snapshot: ["metrics"] (the
      {!Ipet_obs.Sink.metrics_json} document, as JSON) and ["prometheus"]
      (the text exposition, as one string);
    - [recent] — the newest flight-recorder events (optional ["n"],
      default 50), newest first, each with its monotonic ["seq"]
      ({!Flight.event_json});
    - [shutdown] — acknowledge, then the server exits gracefully.

    A success response is [{"ok": true, "op": ..., ...}]; a failure is
    [{"ok": false, "error": {"code", "message"}}] with code [proto]
    (malformed JSON / unknown op / bad version), [input] (program or
    annotations don't parse, unknown root — the CLI's exit-2 class),
    [analysis] (the analysis itself failed — exit-1 class), [timeout], or
    [internal]. A request failure never terminates the server.

    Every request — success or failure — is timed into the
    [serve.latency_seconds] histogram (labelled by op), recorded in the
    flight recorder, and appended to the access log when one is
    configured, as the same {!Flight.event_json} line; none of that
    depends on span tracing being enabled. A request's work is one
    {!Incremental.stats} record, created before the request is
    dispatched, so what a failed analysis did before it failed is kept.
    Once the request has ended, that record is added to the [stats] op's
    certificate totals and to the registry counters
    [serve.cert.checked], [serve.cert.rejected] and [serve.ilp.solves],
    and the flight event holds it. *)

type totals = {
  mutable requests : int;
  mutable errors : int;
  mutable certs_checked : int;
  mutable certs_rejected : int;
}

type config = {
  cache : Cache.t option;         (** [None]: caching disabled *)
  default_timeout_ms : int option;
      (** applied to analyze requests that don't set [timeout_ms] *)
  flight : Flight.t;             (** always-on per-request recorder *)
  access : Access_log.t option;  (** JSONL access log, when configured *)
  totals : totals;
}

val make :
  ?cache:Cache.t ->
  ?default_timeout_ms:int ->
  ?access:Access_log.t ->
  ?flight_cap:int ->
  unit ->
  config
(** Build a config with a fresh flight recorder (ring capacity
    [flight_cap], default 512) and zeroed totals. *)

type outcome = Continue | Shutdown

val handle_line : config -> string -> string * outcome
(** Process one request line, returning the response line (no trailing
    newline) and whether the server should keep going. Total: every
    exception is mapped to an error response. *)

val error_response :
  ?id:Ipet_obs.Json.t -> ?trace:string -> string -> string -> Ipet_obs.Json.t
(** [error_response code message]: the failure response
    [{"ok":false,"error":{"code","message"}}], with ["id"] and ["trace"]
    first when given. *)

val version : int
(** Protocol version this server speaks. *)
