(** Machine models: everything the cost bounds, the analysis and the
    cycle simulator know about a target micro-architecture, behind one
    signature. The IPET formulation is target-agnostic — it consumes
    per-block [c_i] bounds — so a machine is exactly the producer of
    those bounds: issue timings, the deterministic stall model,
    terminator costs, the default fetch hierarchy, and the residency
    predicate used by the first-miss refinement.

    Two instances ship: {!e32}, the i960KB-style core this repository
    grew up on, and {!m7}, an ARMv7-M-style core whose instruction fetch
    is wait-state flash behind a one-line prefetch buffer — the
    degenerate direct-mapped cache with [size_bytes = line_bytes], which
    the shared {!Icache}/{!Cost} machinery models soundly unchanged. *)

module type MACHINE = sig
  val id : string
  (** Stable short name ("e32", "m7"): CLI value, serve-protocol field,
      and serve cache-key component. *)

  val description : string

  val fetch : Icache.config
  (** Default instruction-fetch configuration (i-cache or one-line
      prefetch buffer). Overridable per run ([--cache-size] etc.). *)

  val issue : dcache:bool -> Ipet_isa.Instr.t -> int
  (** Non-overlapped execution cycles, excluding fetch misses and
      stalls. With [~dcache:true] loads cost only their pipeline base;
      memory time is charged by the data-cache model. *)

  val term_bounds : Ipet_isa.Instr.terminator -> int * int
  (** (best, worst) terminator cycles. *)

  val term_actual : Ipet_isa.Instr.terminator -> taken:bool -> int
  (** Actual terminator cycles given the branch outcome; within
      {!term_bounds}. *)

  val stall_after : Ipet_isa.Instr.t -> Ipet_isa.Instr.t -> int
  (** Deterministic stall of the second instruction given its
      predecessor. *)

  val resident_ok : fetch:Icache.config -> lo:int -> hi:int -> bool
  (** May the first-miss refinement assume code in [lo, hi) stays
      fetch-resident across loop iterations under [fetch]? *)
end

type t = (module MACHINE)

val e32 : t
val m7 : t

val all : t list
(** Every machine, in CLI/documentation order. *)

val id : t -> string
val description : t -> string
val fetch : t -> Icache.config

val of_string : string -> (t, string) result
(** Look a machine up by its {!id}; the error names the valid ids. *)

val issue_table : t -> ?dcache:bool -> Ipet_isa.Instr.t array -> int array
(** Per-instruction issue cycles of a block body, precomputable at
    decode time. *)

val stall_table : t -> Ipet_isa.Instr.t array -> int array
(** Per-instruction deterministic stalls: entry [i] is the stall of
    instruction [i] after instruction [i-1] (entry 0 is 0). *)

val block_stalls : t -> Ipet_isa.Instr.t array -> int
(** Total deterministic stalls of a block body. *)
