(** Structural constraints — Section III.B.

    Derived automatically from the CFG: at every basic block, the execution
    count equals both the inflow and the outflow (constraints (2)–(9) of the
    paper); the root's entry edge is pinned to 1 (constraint (13)); every
    call site's f-edge count equals the count of the block containing it,
    and feeds the entry edge of the callee's per-site instance (constraints
    (10)–(12) via virtual inlining). *)

type instance = {
  ctx : Flowvar.ctx;
  func : Ipet_isa.Prog.func;
  sites : (Callsite.t * string * Flowvar.ctx) list;
      (** call sites of this instance: site, callee name, and the callee
          instance's context *)
}

val instances : Ipet_isa.Prog.t -> root:string -> instance list
(** Every function instance reachable from the root, root first, one per
    call path (virtual inlining).
    @raise Ipet_cfg.Callgraph.Recursive on a recursive program.
    @raise Invalid_argument on an unknown root. *)

val constraints :
  Ipet_isa.Prog.t -> instance list -> Ipet_lp.Lp_problem.constr list
(** All structural constraints of the expanded program. *)

val instance_constraints :
  instance -> is_root:bool -> Ipet_lp.Lp_problem.constr list
(** Structural constraints of a single instance: flow conservation at every
    block, call-site f-edge coupling, and — when [is_root] — the entry edge
    pinned to 1 (constraint (13)). Building one instance with [is_root:true]
    and no [sites] yields the per-entry flow problem of a function in
    isolation, the unit of the incremental server's decomposition. *)

val block_sum : instance list -> func:string -> block:int -> Ipet_lp.Linexpr.t
(** Sum of the block's count variable across every instance of [func] —
    what an unqualified [x_i] means in user constraints. *)

val instance_at :
  instance list -> root:string -> path:Callsite.t list -> instance option
(** Follow a call-site path from the root instance. *)
