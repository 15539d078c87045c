(** Cinderella-style reporting: annotated source listings (Fig. 5) and
    constraint dumps. *)

val annotated_source :
  source:string -> Ipet_isa.Prog.t -> func:string -> string
(** The function's source lines prefixed with the [x_i] labels of the basic
    blocks starting on each line, like the paper's Fig. 5. *)

val constraints_listing : Ipet_lp.Lp_problem.constr list -> string
(** One constraint per line, with provenance. *)

val bound_summary :
  Analysis.result -> string
(** Human-readable estimated bound, witness counts and solver statistics. *)

val record_lp_metrics : Ipet_obs.Metrics.t -> Analysis.result -> unit
(** Publish the solver statistics of both extremes into a metrics registry
    as [lp.*] gauges labelled [solver=wcet|bcet]. *)

val certificates_json : Analysis.result -> Ipet_obs.Json.t
(** The [--cert-out] document: per extreme that carries a certificate
    (["wcet"], then ["bcet"]), its checker verdict ([valid],
    [gap_closed]) and the certificate itself
    ({!Ipet_cert.Certificate.to_json}, read back by
    {!Ipet_cert.Certificate.of_json}). *)

val lp_stats : Analysis.result -> string
(** Detailed solver statistics for both extremes rendered through the
    metrics registry, one [name{labels} value] line per statistic
    (cinderella's [--lp-stats]). *)

(** {1 Pessimism attribution}

    Where does the gap between the WCET estimate and an actual simulated
    run come from?  Per basic block, compare the witness execution count
    times the worst-case cost bound against the simulator's measured count
    and cycles, and rank blocks by their contribution to the gap. *)

type attribution_row = {
  attr_func : string;
  attr_block : int;
  wcet_count : int;   (** witness execution count *)
  wcet_cost : int;    (** worst-case cycles per execution (bound) *)
  wcet_cycles : int;  (** [wcet_count * wcet_cost] *)
  sim_count : int;    (** simulated execution count *)
  sim_cycles : int;   (** simulated cycles attributed to the block,
                          callee time excluded *)
  gap : int;          (** [wcet_cycles - sim_cycles] *)
}

val attribution :
  wcet_counts:((string * int) * int) list ->
  wcet_cost:(string -> int -> int) ->
  sim_counts:((string * int) * int) list ->
  sim_cycles:((string * int) * int) list ->
  attribution_row list
(** Join the witness counts, the cost model and the simulator profile on
    (function, block) and return rows sorted by descending [gap]. *)

val pp_attribution : wcet:int -> simulated:int -> attribution_row list -> string
(** Render the attribution table; rows with no cycles on either side are
    omitted. *)
