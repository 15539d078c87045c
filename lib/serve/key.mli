(** Content-addressed cache keys for analysis results.

    A key is the MD5 digest of a canonical serialization of the inputs
    that determine the cached result. A per-function unit hashes:

    - the machine id: two machines never share a cache entry, even when
      their timings happen to agree on the function at hand;
    - the function's compiled form (blocks, instructions, terminators,
      source lines — renames and literal edits change it; formatting of
      the MC source does not, since the key hashes compiled code). It
      and the annotations determine the unit's flow constraints. A
      literal edit that leaves the ILP unchanged still changes the key;
    - the loop-bound annotations that apply to the function;
    - the WCET and BCET objectives the unit solves
      ({!Ipet.Analysis.objective}). They hold every cross-function
      influence on the local ILP as one input: the block costs (code
      layout, cache geometry, line-split refetch penalties from
      transitively reachable callees), each callee's per-entry extreme
      charged at its call sites, and the first-miss refinement plan,
      which on some machines depends on absolute code alignment. A
      change elsewhere in the program invalidates this function exactly
      when it changes what this function's solve would see; a callee edit
      whose per-entry interval is unchanged leaves every caller's key
      (and cached entry) valid.

    Two requests that agree on all of the above share the key and the
    cached per-function result, whatever else differs between them. *)

val schema : int
(** Bumped whenever the serialization or the cached value layout changes
    (6: each entry holds its certificates as JSON objects); part of every
    key, so stale cache dirs miss instead of mis-hit. *)

val func_key :
  mach:string ->
  annotations:Ipet.Annotation.t list ->
  wcet:Ipet_lp.Linexpr.t ->
  bcet:Ipet_lp.Linexpr.t ->
  Ipet_isa.Prog.func ->
  string
(** Hex digest for one function's per-entry analysis unit. [mach] is the
    machine id ({!Ipet_machine.Machine.id}). [annotations] may be the
    request's full list — only those naming the function are hashed.
    [wcet] and [bcet] are the unit's two objectives. *)

val program_key :
  mach:string ->
  cache:Ipet_machine.Icache.config ->
  dcache:Ipet_machine.Icache.config option ->
  first_miss:bool ->
  root:string ->
  annotations:Ipet.Annotation.t list ->
  functional:Ipet.Functional.t list ->
  Ipet_isa.Prog.t ->
  string
(** Hex digest for the whole-program (monolithic) analysis unit — the
    granularity used when functionality constraints couple functions and
    a per-function decomposition would be unsound. It hashes the cost
    model, whether the WCET objective takes the first-miss refinement,
    the root, every function with its annotations, the globals and the
    functionality constraints. *)

val func_bytes :
  mach:string ->
  annotations:Ipet.Annotation.t list ->
  wcet:Ipet_lp.Linexpr.t ->
  bcet:Ipet_lp.Linexpr.t ->
  Ipet_isa.Prog.func ->
  string
(** The canonical serialization {!func_key} digests — exposed so tests can
    assert that distinct serializations were never observed to collide. *)
