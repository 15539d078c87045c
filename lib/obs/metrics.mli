(** A registry of named metrics with optional labels.

    Three metric kinds, in the usual monitoring vocabulary:
    - {b counters} — monotonically increasing integers (events, LP calls,
      cache misses);
    - {b gauges} — last-write-wins numbers (problem sizes, block counts);
    - {b histograms} — running count/sum/min/max of observed samples
      (per-solve wall times).

    A metric is identified by its name plus its (sorted) label set, so
    [lp.calls{solver=wcet}] and [lp.calls{solver=bcet}] are independent.
    Handles ({!counter}, {!histogram}) are resolved once and then updated
    without further lookups, keeping updates cheap enough for cold and
    warm paths alike; truly hot loops (the simulator, simplex pivots)
    count locally and fold into the registry at phase end.

    Registries are deterministic: {!items} orders by (name, labels), so a
    rendered registry is stable across identical runs modulo the observed
    values themselves. *)

type t

type labels = (string * string) list

type counter
type histogram

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float; min : float; max : float }

val create : unit -> t
val reset : t -> unit

val counter : t -> ?labels:labels -> string -> counter
(** Find-or-create; repeated calls with the same name/labels return the
    same underlying cell. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set_gauge : t -> ?labels:labels -> string -> float -> unit
val set_gauge_int : t -> ?labels:labels -> string -> int -> unit

val histogram : t -> ?labels:labels -> string -> histogram
val observe : histogram -> float -> unit

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile (q in [0,1]) of the observed
    samples from fixed geometric buckets (16 per octave, so each bucket is
    ~4.4% wide, covering 2^-30..2^30). The rank convention matches sorting
    the samples and taking entry [ceil(q*count)] (1-based); the estimate
    is the holding bucket's midpoint clamped to the exact observed
    [min]/[max], so for small sample counts the extremes are exact.
    Returns 0.0 for an empty histogram. *)

val items : t -> (string * labels * value) list
(** All metrics, sorted by (name, labels); labels are sorted by key. *)
