(** The IPET timing analysis — the paper's main algorithm.

    For a program, a root function, a micro-architecture configuration,
    loop-bound annotations and optional functionality constraints, the
    analysis:

    + expands per-call-site instances and derives structural constraints;
    + computes per-block cost bounds [c_i] from the machine model;
    + expands the functionality constraints to DNF and prunes null sets;
    + for every surviving conjunctive set, solves one ILP maximizing (WCET)
      or minimizing (BCET) [Σ c_i·x_i];
    + reports the extreme bound over all sets, the witness block counts, and
      the solver statistics of Section VI.

    An estimated bound computed this way always encloses any simulated
    execution of the program whose loop iterations respect the annotations
    (soundness, Fig. 1). *)

exception Analysis_error of string

type spec = {
  prog : Ipet_isa.Prog.t;
  root : string;
  mach : Ipet_machine.Machine.t;
      (** the target micro-architecture: the cycle table and the default
          fetch configuration (default {!Ipet_machine.Machine.e32}) *)
  cache : Ipet_machine.Icache.config;
  dcache : Ipet_machine.Icache.config option;
      (** when set, loads are bounded by data-cache hit/miss times instead
          of the flat memory latency *)
  loop_bounds : Annotation.t list;
  functional : Functional.t list;
  first_miss_refinement : bool;
      (** Section IV's proposed refinement of the WCET objective: inside a
          loop whose code provably stays cache-resident (its lines map to
          distinct sets of [cache], {!Ipet_machine.Icache.resident}, and
          it makes no calls), charge each block its
          all-hit worst cost per execution plus one full line fill per
          {e loop entry} instead of per iteration. It touches only each
          instance's own block and loop-entry edge variables, so it is a
          per-function objective ({!objective}). Off by default (the
          paper's baseline model). *)
  presolve : bool;
      (** run {!Ipet_lp.Presolve} before the branch and bound (on by
          default): one fixpoint per constraint set, from which both the
          WCET and the BCET problem are emitted and solved.
          Semantics-preserving: it leaves the bounds unchanged, and affects
          solve time, the reduction statistics and, among alternate optima,
          which witness is reported *)
}

val spec :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  ?dcache:Ipet_machine.Icache.config ->
  ?loop_bounds:Annotation.t list ->
  ?functional:Functional.t list ->
  ?first_miss_refinement:bool ->
  ?presolve:bool ->
  root:string ->
  Ipet_isa.Prog.t ->
  spec
(** [cache] defaults to the machine's own fetch configuration
    ([Ipet_machine.Machine.t.fetch]); passing it explicitly overrides the
    geometry while keeping the machine's timings. *)

type solver_stats = {
  sets_total : int;      (** conjunctive sets after DNF expansion *)
  sets_pruned : int;     (** removed as trivially null *)
  sets_solved : int;     (** ILPs actually handed to the solver *)
  sets_infeasible : int; (** sets the simplex proved empty *)
  lp_calls : int;        (** total LP relaxations over all ILPs *)
  bnb_nodes : int;       (** branch-and-bound nodes over all ILPs *)
  simplex_pivots : int;  (** simplex pivots over all LP calls *)
  refactorizations : int;
      (** basis refactorizations over all LP calls (the revised simplex
          rebuilds its eta-file factorization periodically) *)
  all_first_lp_integral : bool;
      (** the paper's observation: every first relaxation was integral *)
  presolve_vars_before : int;
      (** ILP variables handed to presolve, summed over the solved sets;
          when presolve is disabled, the raw problem sizes (and the
          [_after] fields repeat them) *)
  presolve_vars_after : int;   (** variables left for the simplex *)
  presolve_constrs_before : int;
  presolve_constrs_after : int;
  presolve_rounds : int;       (** total presolve fixpoint rounds *)
}

type extreme = {
  cycles : int;
  counts : ((string * int) * int) list;
      (** witness execution counts per (function, block), aggregated over
          instances; zero counts omitted. The witness is the postsolved
          assignment the winning ILP's solve returned. Among alternate
          optima it may depend on solver configuration such as
          {!spec.presolve}; the cycles do not *)
  binding : string list;
      (** origins of the inequality constraints that are tight at the
          optimum — the loop bounds and path facts that determine this
          extreme (flow equations excluded) *)
}

type certificate = {
  cert : Ipet_cert.Certificate.t;
      (** duals, witness, and digest for the winning constraint set's
          ILP — the problem the reported bound came from *)
  verdict : Ipet_cert.Checker.verdict;
      (** the trusted checker's validation, run eagerly at production *)
  emit_seconds : float;
      (** certificate production time: packaging the lifted root prices,
          or one un-presolved LP solve when they do not prove the bound.
          The first certificate of a constraint set also pays for the
          set's checker view ({!system}) *)
  emit_pivots : int;     (** simplex pivots of that solve; 0 when lifted *)
  emit_source : Ipet_cert.Certify.source;
      (** where the duals came from: the lifted root prices, or the cold
          re-solve when they do not prove the bound *)
  check_seconds : float;
      (** trusted-checker validation time, on the set's view *)
}

type result = {
  wcet : extreme;
  bcet : extreme;
  wcet_stats : solver_stats;
  bcet_stats : solver_stats;
  wcet_cert : certificate option;  (** present when [certify] was set *)
  bcet_cert : certificate option;
}

val analyze : ?certify:bool -> spec -> result
(** Solves one ILP per surviving disjunctive constraint set and direction,
    in set order, and keeps the extreme optimum. With {!spec.presolve},
    each set is presolved once and both directions are solved from that
    fixpoint ({!system}).
    [certify] (default [false]) additionally emits an exact duality
    certificate per extreme (see {!Ipet_cert.Certify}) and validates it
    with the trusted checker; the verdicts and emit/check times are in
    the result ({!Report.record_lp_metrics} turns them into [cert.*]
    gauges).
    @raise Analysis_error when a loop lacks a bound annotation, a
    functionality constraint does not resolve, every constraint set is
    infeasible, the ILP is unbounded, or certificate production fails. *)

val estimated_bound : spec -> int * int
(** [(bcet, wcet)] — the paper's estimated bound [[t_min, t_max]]. *)

type sensitivity_row = {
  annotation : Annotation.t;
  base_wcet : int;
  tightened_wcet : int;  (** WCET with this loop's [hi] reduced by one *)
}

val wcet_sensitivity : spec -> sensitivity_row list
(** The discrete shadow price of each loop-bound annotation: how much the
    WCET drops if the bound is tightened by one iteration. Zero-impact
    bounds are off the critical path; the largest drop tells the user which
    loop deserves a more precise annotation (or faster code). Re-solves one
    ILP per annotation. *)

(** {1 Introspection} (used by the figure regeneration and the CLI) *)

val structural_constraints : spec -> Ipet_lp.Lp_problem.constr list
val instances : spec -> Structural.instance list

val wcet_problems : spec -> Ipet_lp.Lp_problem.t list
(** The complete ILPs the WCET computation solves, one per surviving
    conjunctive constraint set — exportable with {!Ipet_lp.Lp_format}.
    @raise Analysis_error under the same conditions as {!analyze}. *)

val bcet_problems : spec -> Ipet_lp.Lp_problem.t list
(** The minimization counterparts of {!wcet_problems}. *)

(** {1 Building and solving ILPs} {!analyze} is the {!system} of
    {!objective} over all instances and, per constraint set,
    {!flow_constraints} plus the set's functionality constraints, solved
    by {!solve_extreme} in each direction; the daemon's per-function units
    use the same pieces. *)

type system
(** An analysis unit's ILPs: one list of constraints per conjunctive
    constraint set, and the WCET and BCET objectives. Each set is
    presolved at most once, by the first direction {!solve_extreme}
    solves, and both directions emit their reduced problems from that
    fixpoint ({!Ipet_lp.Presolve.emit}). Likewise each set has at most
    one {!Ipet_cert.Checker.view}, built by the first certificate
    emitted or checked on it: both directions' certificates of the set,
    fresh or stored, take their digests from it and are checked on
    it. The fixpoint and the view read one numbering of the set
    ({!Ipet_lp.Lp_problem.Columns}), made once, by the first of them. *)

val system :
  wcet:Ipet_lp.Linexpr.t -> bcet:Ipet_lp.Linexpr.t ->
  Ipet_lp.Lp_problem.constr list list -> system
(** [system ~wcet ~bcet sets]: maximize [wcet] and minimize [bcet] over
    each constraint set of [sets]. *)

val system_problems :
  system -> Ipet_lp.Lp_problem.direction -> Ipet_lp.Lp_problem.t list
(** One direction's complete ILPs, one per constraint set, in set order. *)

val check_stored :
  system ->
  Ipet_lp.Lp_problem.direction ->
  Ipet_cert.Certificate.t ->
  (Ipet_lp.Lp_problem.t * Ipet_cert.Checker.verdict) option
(** [check_stored system direction cert]: the first set whose problem in
    [direction] has the digest [cert] names, as that problem and the
    trusted checker's verdict on [cert] there; [None] when no set's
    digest matches. Digest and check are read off the set's view, so a
    stored WCET and BCET certificate of one set render its rows once. *)

val program_system : spec -> Structural.instance list * system
(** The instances and the system whose problems are {!wcet_problems} and
    {!bcet_problems}, built from one preparation of the spec and one cost
    table: the system {!analyze} solves. *)

type costs
(** One analysis's per-function cost table over one code layout: block
    cost bounds and, when a first-miss objective needs it, the refinement
    plan. Filled on demand, each function once; the whole-program
    call-graph slot sets its bounds read are computed once, on first
    use. *)

val costs : spec -> costs

val objective :
  ?callee:(string -> int) ->
  costs ->
  Structural.instance list ->
  Ipet_lp.Lp_problem.direction ->
  Ipet_lp.Linexpr.t
(** [Σ c_i·x_i] over every block of the instances: best-case costs when
    minimizing, worst-case costs when maximizing, refined by
    {!spec.first_miss_refinement} when it is on. [callee g] is added to a
    block's coefficient once per call the block makes to [g]: zero (the
    default) in the monolithic ILP, whose callee instances carry their
    own cost; [g]'s per-entry extreme for a function solved alone. *)

val solve_extreme :
  ?certify:bool ->
  spec ->
  Structural.instance list ->
  system ->
  Ipet_lp.Lp_problem.direction ->
  extreme * solver_stats * certificate option
(** One direction: one ILP per constraint set, keeping the extreme optimum
    as an extreme of the instances. [certify] (default [false]) emits the
    winner's certificate and checks it once. [sets_total] counts the sets
    and [sets_pruned] is 0.
    @raise Analysis_error as {!analyze}. *)

val flow_constraints :
  spec -> Structural.instance list -> Ipet_lp.Lp_problem.constr list
(** Structural and loop-bound constraints of the given instances — the
    whole program's expansion, or one function in isolation.
    @raise Analysis_error when a loop of these instances lacks a bound. *)

val extreme_of_witness :
  Structural.instance list ->
  Ipet_lp.Lp_problem.t ->
  bound:Ipet_num.Rat.t ->
  (string * Ipet_num.Rat.t) list ->
  extreme
(** The extreme an optimal witness of [problem] reports: [bound] as the
    cycles, the witness's block counts summed over [instances], and the
    origins of the inequalities it makes tight. A certificate's witness
    yields exactly the extreme {!analyze} reported with it. *)

val block_costs : spec -> func:string -> Ipet_machine.Cost.bounds array
(** Per-block cost bounds used for the objective. [block_costs spec] is
    one cost table: apply it once and then to each function, and every
    function is costed once over one layout and one call-graph slot
    fixpoint. *)
