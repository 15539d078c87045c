(** Rendering a metrics registry (and span aggregates) for humans and
    machines.

    Three formats share one source of truth:
    - {!human} — one [name{label=v,...} value] line per metric, sorted,
      for terminal output ([--lp-stats] and friends); histograms include
      p50/p90/p99 quantile estimates (see {!Metrics.quantile});
    - {!metrics_json} — a versioned JSON value with every metric and
      optional per-span-name duration aggregates, written by
      [--metrics-out] and served by the daemon's [metrics] op. Metrics
      come in sorted order, so two runs of the same workload produce
      documents that differ only in the observed values (and not at all
      under a deterministic clock);
    - {!prometheus} — the Prometheus text exposition format, served by the
      daemon's [metrics] op for scraping. Dotted names map to underscores;
      histograms render as summaries (quantile-labeled samples plus
      [_sum]/[_count]). *)

val human : ?filter:(string -> bool) -> Metrics.t -> string
(** Render the registry as text; [filter] selects metric names
    (default: all). *)

val metrics_json :
  ?span_totals:(string * (int * int)) list -> Metrics.t -> Json.t
(** The machine document:
    [{"version":1,"metrics":[...],"spans":[...]}], one object per metric
    (name, labels, type, and the value or histogram fields) and per span
    name. [span_totals] is {!Span.totals} output: per-name completion
    counts and total microseconds. [--metrics-out] writes it through
    {!Json.to_string}; the daemon's [metrics] op embeds the value. *)

val prometheus : Metrics.t -> string
(** Render the registry in the Prometheus text exposition format: a
    [# TYPE] line per metric family (counter/gauge/summary) followed by
    its samples, in registry (sorted) order. *)
