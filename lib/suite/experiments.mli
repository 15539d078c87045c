(** The paper's two experiments (Section VI), runnable per benchmark.

    - {b Experiment 1} compares the ILP {e estimated} bound against the
      {e calculated} bound: simulated basic-block counts on the
      hand-identified extreme data sets, multiplied by the same per-block
      cost bounds the ILP used. The difference is pure path-analysis
      pessimism (Table II).
    - {b Experiment 2} compares the estimated bound against the
      {e measured} bound: cycle-accurate simulation with the real cache
      (flushed before the worst-case run, warmed for the best-case run, as
      on the paper's QT960 board). The difference adds the
      micro-architectural modelling pessimism (Table III). *)

type interval = { lo : int; hi : int }

type row = {
  bench : string;
  lines : int;                (** non-blank source lines (Table I) *)
  sets_total : int;           (** DNF constraint sets (Table I) *)
  sets_pruned : int;          (** null sets eliminated (Table I footnote) *)
  estimated : interval;       (** ILP bound *)
  calculated : interval;      (** Experiment 1 reference *)
  measured : interval;        (** Experiment 2 reference *)
  lp_calls : int;
  all_first_lp_integral : bool;
}

val pessimism : estimated:interval -> reference:interval -> float * float
(** The paper's pessimism metric:
    [( (Cl - El) / Cl, (Eu - Cu) / Cu )]. *)

val simulate :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  ?dcache:Ipet_machine.Icache.config ->
  Ipet_lang.Compile.t ->
  Bspec.t ->
  Bspec.dataset ->
  flush:bool ->
  warm:bool ->
  Ipet_sim.Interp.t
(** One run of [bench]'s root on a data set, on a fresh machine: [flush]
    empties the caches first (the worst-case runs); [warm] runs the data
    set once beforehand, then zeroes the counters and restores memory (the
    best-case runs). The machine is returned for its counters and views. *)

val run :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  ?dcache:Ipet_machine.Icache.config ->
  Bspec.t ->
  row
(** Analyze, simulate and measure one benchmark; [mach] selects the
    machine model for both the analysis and the simulation (default
    {!Ipet_machine.Machine.e32}); [dcache] enables the data-cache model
    in both. *)

val run_all :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  ?dcache:Ipet_machine.Icache.config ->
  unit ->
  row list
(** Every suite benchmark, in suite order. *)

(** {1 Table rendering}

    Fixed-width plain text, exactly the paper's Tables II/III layout; used
    by the bench driver and checked against golden files by the test
    suite. *)

val render_table2 : row list -> string
(** Estimated vs calculated bound with path-analysis pessimism, one line
    per row, header included. *)

val render_table3 : row list -> string
(** Estimated vs measured bound with total pessimism. *)
