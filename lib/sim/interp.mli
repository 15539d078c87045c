(** Cycle-level simulator of E32 programs.

    Plays two roles from the paper's evaluation:
    - {b Experiment 1}: it inserts a (virtual) counter into each basic block
      and records execution counts, from which the "calculated bound" is
      formed.
    - {b Experiment 2}: it is the stand-in for the QT960 board — it executes
      the program with a concrete data set and charges cycles per
      instruction, including real i-cache behaviour, load-use stalls and
      branch outcomes, producing the "measured" time.

    Each block's own cycles ({!block_cycles}) lie within its execution
    count times its per-block bounds from {!Ipet_machine.Cost} — the
    promise stated there, which the fuzz oracle checks — because both read
    the machine's one table ({!Ipet_machine.Machine.instr_cycles} and
    {!Ipet_machine.Machine.term}).
    Note a block's misses can exceed the lines it spans: a call that splits
    a cache line can evict that line mid-block, so the return re-fetches it
    — {!Ipet_machine.Cost.func_bounds} charges those refetches explicitly
    (found by [cinderella fuzz], see [test/corpus/regress_call_line_split.mc]).

    {b Implementation}: {!create} pre-decodes the program into flat,
    integer-indexed structures — dense block/edge/call-site counter slots,
    per-instruction i-cache (tag index, line) pairs, each block's cycles
    summed from the machine's per-instruction table, and pre-resolved
    callees. The execution loop touches no hashtable, performs no timing
    analysis and records each event once: block entries, edges and calls
    per node of a calling-context tree (descended in O(1) per call),
    i-fetch misses per fetch position and d-cache misses per block. Every
    other figure — {!cycles}, {!instructions}, the hits, the flat counts,
    {!block_cycles} and {!icache_line_stats} — is a fold over those
    counters and the decoded tables, made when it is read. Registers are
    unboxed: a frame holds an int file, a flat float file and a kind byte
    per register, sized to every register its function names, so an ALU,
    compare, FPU or move result allocates nothing and the loop calls no
    function of another module but the d-cache's probe. A word is boxed
    as a {!Ipet_isa.Value.t} only in memory and at {!call}'s arguments
    and result; a mistyped register read raises
    {!Ipet_isa.Value.as_int}'s or {!Ipet_isa.Value.as_float}'s
    [Invalid_argument], and a register no instruction has written reads
    as int 0. Observable behaviour is identical to a direct interpreter
    that charges cycles as it goes, at roughly an order of magnitude
    higher throughput.

    The views describe completed calls: after {!call} raises
    [Runtime_error] or [Out_of_fuel] their values are unspecified until
    {!reset_stats}. *)

exception Runtime_error of string
exception Out_of_fuel

type t

val create :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  ?dcache:Ipet_machine.Icache.config ->
  ?stack_words:int ->
  ?fuel:int ->
  Ipet_isa.Prog.t ->
  init:(int * Ipet_isa.Value.t) list ->
  t
(** Build a machine with initialized global memory. [mach] (default
    {!Ipet_machine.Machine.e32}) supplies the cycle table the decoded
    blocks are costed from; [cache] defaults to the
    machine's own fetch configuration. [stack_words] defaults to the
    deepest sum of frame words along any call chain, capped at 65,536
    words, which is also the default of a recursive program. [fuel]
    bounds the number
    of executed basic blocks (default 50 million). Without [dcache], data
    accesses cost a flat latency; with it, loads are cached (write-through,
    no-allocate stores bypass it). Every run carries its per-block
    profile ({!block_cycles}) and per-set i-cache tallies
    ({!icache_line_stats}). *)

val program : t -> Ipet_isa.Prog.t
val layout : t -> Ipet_isa.Layout.t

val call : t -> string -> Ipet_isa.Value.t list -> Ipet_isa.Value.t option
(** Execute a function with the given arguments; statistics accumulate.
    @raise Runtime_error on memory faults, division by zero, stack overflow,
    or argument mismatch.
    @raise Out_of_fuel when the fuel budget is exhausted (e.g. a loop whose
    bound annotation would have been wrong). *)

val reset_memory : t -> init:(int * Ipet_isa.Value.t) list -> unit
(** Restore global memory and the stack pointer; the cache keeps its state
    (used for warm-cache best-case measurements). Memory reads as a fresh
    machine's with [init]; only the words written since the last reset
    (by a run, {!write_global} or [init]) are cleared. *)

val reset_stats : t -> unit
(** Zero every counter, so every view reads zero; cache contents are
    kept. The counters are zeroed in place, not reallocated. *)

val flush_cache : t -> unit

val write_global : t -> string -> int -> Ipet_isa.Value.t -> unit
(** [write_global m name index v] stores into [name[index]] (index 0 for
    scalars). @raise Runtime_error on unknown globals or bad indices. *)

val read_global : t -> string -> int -> Ipet_isa.Value.t

val cycles : t -> int
val instructions : t -> int
val cache_hits : t -> int
val cache_misses : t -> int
val dcache_hits : t -> int
val dcache_misses : t -> int

val block_count : t -> func:string -> block:int -> int
val block_counts : t -> ((string * int) * int) list
(** The (function, block) execution counts of every executed block, by
    key. *)

val block_cycles : t -> ((string * int) * int) list
(** Per (function, block): cycles attributed to the block itself — issue,
    stall, i-cache miss and dcache penalty cycles incurred while executing
    it, terminator included, callee time excluded. Summing the list gives
    exactly {!cycles} of the run, and each block's cycles lie within its
    execution count times the bounds {!Ipet_machine.Cost.func_bounds}
    gives it. *)

val pp_profile : Format.formatter -> t -> unit
(** The per-block cycle profile [cinderella sim --profile] prints: one row
    per executed block with its {!block_counts} executions, its
    {!block_cycles} and its share of their sum, by descending cycles. *)

val icache_line_stats : t -> (int * int) array
(** Per i-cache set: (hits, misses) fetch tallies; they sum to
    {!instructions}. *)

val edge_count : t -> func:string -> src:int -> dst:int -> int
val call_count : t -> caller:string -> block:int -> occurrence:int -> int

val set_block_hook : t -> (string -> int -> unit) -> unit
(** [set_block_hook m f] calls [f func block] at every basic-block
    entry. *)

(** {1 Context-qualified counters}

    The IPET analysis gives each call path from the root its own copy of the
    callee's flow variables; these counters report executions per call path
    so the analysis' structural constraints can be validated against real
    runs instance by instance. A path is the chain of call sites
    [(caller, block, occurrence)] from the root call. *)

type site = string * int * int

val ctx_block_count : t -> path:site list -> func:string -> block:int -> int
val ctx_edge_count : t -> path:site list -> func:string -> src:int -> dst:int -> int
val ctx_call_count :
  t -> path:site list -> caller:string -> block:int -> occurrence:int -> int
val ctx_entry_count : t -> path:site list -> func:string -> int
(** How many times the instance at this path was entered. *)

(** {1 Exposed internals} *)

val alu : Ipet_isa.Instr.alu_op -> int -> int -> int
(** The integer ALU: 32-bit wrapping arithmetic ({!Ipet_isa.Value.wrap32}),
    6-bit shift-amount masking with the 63 clamp, and wrapping
    [min_int32 / -1]. Exposed so tests can assert it never drifts from
    {!Ipet_lang.Optimize.fold_alu}.
    @raise Runtime_error on division or modulo by zero. *)
