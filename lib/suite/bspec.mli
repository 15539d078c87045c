(** Benchmark descriptors for the paper's evaluation set (Table I).

    Each benchmark bundles the MC source of the routine, the analysis root,
    the loop-bound annotations and functionality constraints a user of
    cinderella would supply, and the hand-identified extreme-case data sets
    used to form the paper's "calculated" and "measured" bounds.

    Loop bounds and constraint references are located by {e source markers}
    (unique substrings) rather than hard-coded line numbers, so the sources
    can be edited without silently invalidating annotations. *)

type dataset = {
  dname : string;
  setup : Ipet_sim.Interp.t -> unit;  (** write the input globals *)
  args : Ipet_isa.Value.t list;       (** arguments of the root call *)
}

type t = {
  name : string;
  description : string;  (** as in Table I *)
  source : string;
  root : string;
  loop_bounds : Ipet.Annotation.t list;
  functional : Ipet.Functional.t list;
  worst_data : dataset list;
      (** candidate worst-case data sets; the harness takes the slowest *)
  best_data : dataset list;
      (** candidate best-case data sets; the harness takes the fastest *)
}

val line_containing : source:string -> string -> int
(** 1-based line of the unique occurrence of a marker substring.
    @raise Failure if absent or ambiguous. *)

val loc : source:string -> string -> int
(** Alias of {!line_containing} for terse benchmark definitions. *)

val source_lines : t -> int
(** Non-blank source lines — the "Lines" column of Table I. *)

val no_setup : Ipet_sim.Interp.t -> unit

val dataset :
  ?setup:(Ipet_sim.Interp.t -> unit) ->
  ?args:Ipet_isa.Value.t list ->
  string ->
  dataset

val annotation_text : t -> string
(** The benchmark's annotations as an annotation file: its [root] and one
    [loop] line per line-addressed bound. Block-addressed bounds and
    functionality constraints have no textual form; each leaves a comment
    line, and boundedness needs only the loop bounds. *)

val compile : t -> Ipet_lang.Compile.t
(** Compile the benchmark source (memoized per benchmark). *)

val spec :
  ?mach:Ipet_machine.Machine.t ->
  ?cache:Ipet_machine.Icache.config ->
  ?dcache:Ipet_machine.Icache.config ->
  t ->
  Ipet.Analysis.spec
(** The analysis specification for the benchmark. [mach] selects the
    machine model (default {!Ipet_machine.Machine.e32}); [cache] defaults
    to the machine's own fetch configuration. *)
