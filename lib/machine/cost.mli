(** Per-basic-block execution-time bounds — the [c_i] of the objective
    function (1).

    Following Section IV, the cost of a block must be a constant, so:
    best case assumes every instruction fetch hits the cache; worst case
    charges a full line fill for {e every} cache line the block spans on
    {e every} execution. The instruction cycles come from the machine's
    one table ({!Machine.instr_cycles}, issue plus deterministic
    pipeline stalls) and the terminator from {!Machine.term_bounds}, both
    added to both bounds. [worst_warm] is the worst case without the
    instruction-fetch miss component, used by the first-miss refinement
    that Section IV suggests.

    The promise, block by block: under the same machine, fetch geometry
    and data cache, every execution of a block costs the simulator
    ([Ipet_sim.Interp.block_cycles]: its issue, stall, terminator and miss
    cycles, callee time excluded) between [best] and [worst], so a block
    run [n] times takes between [n * best] and [n * worst]. The fuzz
    oracle checks it on every generated run. *)

type bounds = {
  best : int;
  worst : int;
  worst_warm : int;  (** worst case assuming all fetches hit *)
}

val func_bounds :
  mach:Machine.t ->
  ?dcache:Icache.config ->
  prog:Ipet_isa.Prog.t ->
  Icache.config ->
  Ipet_isa.Layout.t ->
  Ipet_isa.Prog.func ->
  bounds array
(** Bounds for every block of the function, indexed by block id.

    [dcache] switches loads from the flat-latency memory model to
    hit-in-the-best-case / miss-in-the-worst-case data-cache bounds.

    [prog] supplies the call graph for the mid-block call refetch
    charge: when a call splits a cache line — the fetch after the call
    resumes on the line the call sits on — and code transitively
    reachable from the callee maps to that line's slot, the callee may
    evict the line while the block is suspended, so the worst case
    charges one extra fill per such call site.

    The slots each function's reachable code can occupy are one
    whole-program fixpoint over the call graph. It runs when
    [func_bounds] is applied to everything but the function, so cost a
    program's functions through one such partial application. *)
