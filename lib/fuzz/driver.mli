(** The fuzzing loop: generate, check, and on failure shrink and report.

    Case [i] of a run uses seed [base_seed + i], so any failing case
    replays in isolation with [--seed <case_seed> --iters 1]. *)

type failure_report = {
  case_seed : int;          (** the exact seed that regenerates this case *)
  failure : Oracle.failure;
  mach : Ipet_machine.Machine.t;  (** the machine model the run targeted *)
  cache : Ipet_machine.Icache.config;
  source : string;          (** the failing program, rendered *)
  shrunk_source : string option;
  shrink_attempts : int;    (** oracle runs the shrinker spent *)
}

type outcome = {
  iters_run : int;
  passed : int;
  worst_wcet : int;
  report : failure_report option;  (** [None] when every case passed *)
}

val run :
  ?log:(string -> unit) ->
  ?shrink:bool ->
  ?shrink_attempts:int ->
  ?mach:Ipet_machine.Machine.t ->
  seed:int ->
  iters:int ->
  unit ->
  outcome
(** Run [iters] cases starting at [seed]; stop at the first failure
    (shrinking it when [shrink], default true). [log] receives progress
    lines. [mach] (default {!Ipet_machine.Machine.e32}) is the machine
    model every case — including the shrink runs — is checked against;
    the generated cache geometry still varies per case. *)

val replay_hint : int -> string
(** The command line that replays one case. *)

val pp_report : Format.formatter -> failure_report -> unit
