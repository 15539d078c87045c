(** Incremental (cache-aware) analysis for the server.

    The monolithic {!Ipet.Analysis.analyze} expands every call path and
    solves one whole-program ILP — the right shape for a one-shot CLI run,
    the wrong shape for a daemon asked to re-analyze a program after a
    one-function edit. This module decomposes the analysis into {e units}
    keyed by {!Key} and persists each unit's result in a {!Cache}. A unit
    has a name, a key, and its constraint system, built and solved by
    {!Ipet.Analysis} itself ({!Ipet.Analysis.objective},
    {!Ipet.Analysis.system}, {!Ipet.Analysis.solve_extreme}), so each of
    its constraint sets is presolved once for both extremes; there are two
    kinds:

    - {b per-function units} (the common case): every function reachable
      from the root is solved in isolation with its entry edge pinned to 1,
      callees before callers, on the monolithic objective over its own
      instance with each call charged the callee's per-entry extreme, so
      the root's per-entry bound is the whole-program bound. The
      first-miss refinement is part of that objective: it touches only
      the function's own block and loop-entry edge variables. Because
      loop-bound constraints are homogeneous in the entry count
      ([lo·e ≤ iter ≤ hi·e]), the per-entry polytope of a function
      instance is the projection of the monolithic one — the
      decomposition reproduces the monolithic bounds exactly whenever the
      monolithic ILP decomposes by instance (tested on the whole
      benchmark suite on both machines, first-miss off and on, and on
      generated programs). A unit is keyed by the two objectives it
      solves ({!Key.func_key}). A request that edits one function
      re-solves only the units whose keys changed — typically exactly
      one.
    - {b one program unit}, for functionality constraints only: they
      couple flow variables across functions, so such a request is a
      single unit keyed by {!Key.program_key}, with one problem per
      surviving constraint set ({!Ipet.Analysis.program_system}).

    Both kinds run through one loop: read the cache entry, validate each
    stored certificate against the problem whose digest it names, on
    that set's checker view, which the entry's two certificates share
    ({!Ipet.Analysis.check_stored}), solve when either fails, and write
    the entry back. An entry is nothing but
    its schema and the two certificates, [{"schema":6,"wcet":C,"bcet":C}]
    with each [C] a {!Ipet_cert.Certificate.to_json} object, decoded by
    {!Ipet_cert.Certificate.of_json}. A cached unit's cycles, witness
    counts and binding constraints are read off each certificate's
    witness, which yields exactly the extreme the fresh solve reported
    with it, so no stored field can change what is served without the
    checker noticing.

    Witness counts are aggregated callers-first: a function's per-entry
    witness counts are scaled by the number of entries its callers'
    witnesses induce. All report content is deterministic — a warm re-run
    of an identical request is byte-identical to the cold run. *)

exception Timeout
(** Raised (between unit solves — cooperative, never mid-simplex) when the
    [deadline] passes. *)

type stats = {
  mutable units_total : int;
      (** analysis units this request decomposed into *)
  mutable units_cached : int;  (** served from the cache *)
  mutable units_solved : int;  (** actually (re-)solved *)
  mutable ilp_solves : int;    (** ILP solver invocations performed *)
  mutable simplex_pivots : int;
      (** simplex pivots spent on this request's fresh solves *)
  mutable certs_checked : int;
      (** trusted-checker validations run — two per fresh solve (one per
          extreme, at production) and two per cache hit: every bound the
          engine returns was just proven, whether it was computed or
          recalled *)
  mutable certs_rejected : int;
      (** validations that failed. A rejected fresh certificate aborts the
          request ({!Ipet.Analysis.Analysis_error}); a rejected cached one
          drops the entry and re-solves, so it is self-healing *)
}
(** The one record of a request's work. The caller creates it and
    {!analyze} adds to it as it goes, so what was counted before a
    {!Timeout} or an {!Ipet.Analysis.Analysis_error} survives the
    exception. *)

val fresh_stats : unit -> stats
(** A record with every count at zero. *)

val stats_fields : stats -> (string * Ipet_obs.Json.t) list
(** The counts as JSON fields, in the order the record declares them:
    the one rendering of a request's work, shared by the daemon's
    response [stats] and its flight-recorder events. *)

val analyze :
  ?cache:Cache.t ->
  ?deadline:float ->
  stats:stats ->
  Ipet.Analysis.spec ->
  Ipet_obs.Json.t
(** Analyze a request, consulting and filling [cache] (no caching when
    omitted) and adding its work to [stats]. [deadline] is an absolute
    {!Unix.gettimeofday} instant. The result is the report — schema,
    root, unit kind, [bcet]/[wcet] cycles, witness counts and binding
    constraints per extreme, and the per-unit summary table (name, key,
    per-entry bounds, entry counts).
    @raise Ipet.Analysis.Analysis_error as the monolithic analysis would
    (missing loop bounds, infeasible constraint sets, ...).
    @raise Timeout when the deadline passes. *)
