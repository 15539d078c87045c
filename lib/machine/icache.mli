(** Direct-mapped instruction cache, modelled after the i960KB's 512-byte
    on-chip cache. Used by the cycle simulator; the analytical cost model
    only uses the configuration (lines touched per block, miss penalty,
    and {!resident} for the first-miss refinement). *)

type config = {
  size_bytes : int;     (** total capacity; must be a multiple of line_bytes *)
  line_bytes : int;     (** must be a power of two *)
  miss_penalty : int;   (** cycles to fill one line *)
}

val i960kb : config
(** The paper's target: 512 bytes, 16-byte lines, 8-cycle fill. *)

type field = Size_bytes | Line_bytes | Miss_penalty

val max_size_bytes : int
(** 1 MiB: the largest capacity {!check} accepts, so that a cache's tag
    store stays at most a million words. *)

val max_miss_penalty : int
(** 2{^20} cycles: the largest miss penalty {!check} accepts. Bounding
    the penalty bounds every block cost ({!Cost}) and every simulated
    cycle count well inside a 63-bit int: a block's worst case charges
    the penalty once per line it spans, and the simulator's fuel bounds
    how many fetches a run can miss. Exact whole-program totals are
    computed without native overflow and rejected beyond int63 by the
    analysis. *)

val check : config -> (config, field * string) result
(** The one geometry check: a power-of-two line, a capacity that is a
    positive multiple of the line and at most {!max_size_bytes}, a miss
    penalty in [[0, max_miss_penalty]]. The error names the offending
    field and what is wrong with it. Every other function here assumes a
    checked config. *)

type t

val create : config -> t
(** @raise Invalid_argument if {!check} rejects the config. *)

val config : t -> config

val access : t -> int -> bool
(** [access t byte_addr] simulates a fetch from the line containing the
    address and returns [true] on a hit. Statistics are updated. *)

val slot_of : config -> int -> int * int
(** [slot_of cfg byte_addr] is the [(tag_index, line)] pair [access] would
    probe — precomputable per static fetch address, so a decoded simulator
    can skip the per-access division. *)

val lookup : t -> int -> bool
(** Hit test without state change. *)

val flush : t -> unit
(** Invalidate every line (the paper flushes before each worst-case
    measurement run). *)

val tag_array : t -> int array
(** The live tag store ([-1] = invalid), indexed by {!slot_of}'s tag index.
    A decoded simulator may probe and fill lines directly as an inlined
    fast path, keeping its own hit/miss tallies; {!flush} still applies. *)

val hits : t -> int
val misses : t -> int

val lines_spanned : config -> addr:int -> size:int -> int
(** Number of cache lines covered by a [size]-byte object at [addr]. *)

val resident : config -> lo:int -> hi:int -> bool
(** The lines of the non-empty range [[lo, hi)] map to distinct sets, so
    none evicts another: call-free code there stays resident across loop
    iterations, the premise of the first-miss refinement. It counts
    lines, not bytes — an unaligned region of [size_bytes] spans one
    line more than the cache has sets. *)
