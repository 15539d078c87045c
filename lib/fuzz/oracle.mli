(** The soundness oracle: one MC source through the whole pipeline, with
    every cross-check the paper's soundness argument rests on.

    For a program the generator guarantees to be well-formed and boundable,
    the oracle checks that:

    - the frontend accepts it and the analysis produces a bound;
    - both bounds come with duality certificates that the trusted checker
      ({!Ipet_cert.Checker}) accepts in exact rational arithmetic, each
      lifted from the root relaxation's prices;
    - the ILP objective is identical with and without presolve;
    - a cold simulated run of [main] finishes, and each executed block's
      own cycles lie within its execution count times the block's cost
      bounds (the cost layer, checked block by block);
    - the run's measured counts score at most the WCET under each WCET
      objective and at least the BCET under each BCET objective (the
      solver chain: presolve, simplex and branch-and-bound);
    - the run's cycle count lies inside the estimated bound [[BCET, WCET]]
      (Fig. 1);
    - the cycle count is also at most the WCET under Section IV's
      first-miss refinement, with the same cache geometry;
    - the measured per-instance block/edge counts satisfy {e every}
      structural and loop-bound constraint the ILP was built from;
    - the optimized build returns the same value and leaves the same global
      memory as the unoptimized build.

    Any deviation — including an unexpected exception anywhere in the
    pipeline — is a classified failure. *)

type failure_kind =
  | Frontend_reject       (** lexer/parser/typecheck/compile refused it *)
  | Analysis_reject       (** analysis raised (e.g. a loop it cannot bound) *)
  | Sim_crash             (** runtime error or fuel exhaustion *)
  | Bound_violation
      (** simulated cycles outside [BCET, WCET], or above the first-miss
          WCET *)
  | Block_cost_violation
      (** an executed block's own cycles lie outside its execution count
          times its per-block cost bounds: the cost model or the machine
          table is wrong for that block *)
  | Objective_violation
      (** the measured counts satisfy a problem's constraints yet score
          above the WCET under its objective, or below the BCET: presolve,
          the simplex or branch-and-bound returned a value short of the
          optimum *)
  | Constraint_violation  (** measured counts break an ILP constraint *)
  | Optimizer_divergence  (** optimized and unoptimized runs observably differ *)
  | Presolve_divergence   (** presolve changed an ILP objective value *)
  | Certificate_reject
      (** the trusted checker refused a bound's duality certificate *)
  | Certificate_cold
      (** a certificate was re-solved cold: the root relaxation's prices
          did not lift through presolve, or did not prove the bound *)
  | Unexpected_exception

val kind_name : failure_kind -> string

type failure = { kind : failure_kind; detail : string }

type stats = { bcet : int; wcet : int; cycles : int; instructions : int }

type verdict = Pass of stats | Fail of failure

val certificate_finding :
  string -> Ipet.Analysis.certificate option -> failure option
(** [certificate_finding what c] is the certificate check {!check} makes
    on one bound ([what] names it): no certificate or a rejected one is a
    [Certificate_reject]; one re-solved cold instead of lifted is a
    [Certificate_cold], whose detail says whether it closes the gap. *)

val block_cost_finding :
  costs:(func:string -> Ipet_machine.Cost.bounds array) ->
  Ipet_sim.Interp.t ->
  failure option
(** The per-block check {!check} makes after the measured run: the first
    executed block whose {!Ipet_sim.Interp.block_cycles} lie outside its
    execution count times its [costs] bounds, as a
    [Block_cost_violation] naming the function and block. *)

val measured_counts :
  Ipet_sim.Interp.t -> Ipet.Structural.instance list -> string -> Ipet_num.Rat.t
(** [measured_counts m instances] values every flow variable of the
    instances from [m]'s context-qualified counters after a run (zero for
    a name it does not know): the assignment the constraint and objective
    checks evaluate. *)

val objective_finding :
  bcet:int ->
  wcet:int ->
  wcet_problems:Ipet_lp.Lp_problem.t list ->
  bcet_problems:Ipet_lp.Lp_problem.t list ->
  (string -> Ipet_num.Rat.t) ->
  failure option
(** The solver-chain check {!check} makes after the per-block one: the
    first problem whose constraints the measured [counts] satisfy and
    whose objective they score above [wcet] (for [wcet_problems]) or
    below [bcet] (for [bcet_problems]), as an [Objective_violation]. A
    problem the counts do not satisfy is left to the constraint check. *)

val check :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  string ->
  verdict
(** Run every check on an MC source text (root function [main], no
    arguments). [mach] (default {!Ipet_machine.Machine.e32}) selects the
    machine model for both the analysis and the simulator; [cache]
    defaults to the machine's own fetch configuration. Never raises. *)
