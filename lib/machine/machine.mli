(** Machine models: one table of cycle counts per target
    micro-architecture. The IPET formulation is target-agnostic — it
    consumes per-block [c_i] bounds — and a machine is the producer of
    those bounds: {!Cost} sums {!instr_cycles} and {!term_bounds}, and
    the simulator ([Ipet_sim.Interp]) decodes every block with
    {!instr_cycles} and {!term}, so both read the same numbers. Whether
    code stays resident is a property of the fetch geometry
    ({!Icache.resident}), not of the machine.

    {!e32} is the i960KB-style core this repository grew up on; {!m7} is
    an ARMv7-M-style core fetching from wait-state flash behind a
    one-line prefetch buffer, the degenerate cache with
    [size_bytes = line_bytes]. *)

type t = {
  id : string;
      (** Stable short name ("e32", "m7"): CLI value, serve-protocol
          field, and serve cache-key component. *)
  description : string;
  fetch : Icache.config;
      (** Default instruction-fetch configuration (i-cache or one-line
          prefetch buffer). Overridable per run ([--cache-size] etc.). *)
  alu : int; mul : int; div : int;
  fadd : int; fmul : int; fdiv : int;
  icmp : int; fcmp : int; mov : int; convert : int;
  load : int; memory_latency : int; store : int; call : int;
  jump : int; branch_taken : int; branch_not_taken : int; return : int;
  load_use_stall : int;
}
(** Issue cycles per instruction class ([alu] covers add, sub, the
    bitwise operations and shifts; [div] also rem; [fadd] also fsub;
    [convert] itof and ftoi), terminator cycles per outcome, and the
    load-use interlock stall. A load costs [load] with a data cache (the
    cache model charges the memory time) and [load + memory_latency]
    on the flat-memory path. *)

val e32 : t
val m7 : t

val all : t list
(** Every machine, in CLI/documentation order. *)

val id : t -> string

val of_string : string -> (t, string) result
(** Look a machine up by its [id]; the error names the valid ids. *)

val issue : t -> dcache:bool -> Ipet_isa.Instr.t -> int
(** Non-overlapped execution cycles, excluding fetch misses and stalls.
    With [~dcache:true] loads cost only their pipeline base. *)

val term : t -> taken:bool -> Ipet_isa.Instr.terminator -> int
(** Cycles of a block terminator given the branch outcome ([taken] is
    ignored by jumps and returns). *)

val term_bounds : t -> Ipet_isa.Instr.terminator -> int * int
(** (best, worst) of {!term} over both outcomes. *)

val stall_after : t -> Ipet_isa.Instr.t -> Ipet_isa.Instr.t -> int
(** Deterministic stall of the second instruction after the first. *)

val instr_cycles : t -> dcache:bool -> Ipet_isa.Instr.t array -> int array
(** Per-instruction cycles of a block body: entry [i] is the {!issue} of
    instruction [i] plus its {!stall_after} instruction [i-1]. The one
    table both the cost bounds and the simulator read. *)
