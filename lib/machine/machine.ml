module I = Ipet_isa.Instr

(* A machine model is everything the analysis, the cost bounds and the
   cycle simulator need to know about the target micro-architecture:
   per-instruction issue timings, the deterministic intra-block stall
   model, terminator costs, the default instruction-fetch hierarchy (a
   real i-cache or a degenerate one-line prefetch buffer), and the
   residency predicate that gates the first-miss refinement. The IPET
   formulation itself never looks inside: it only consumes the per-block
   [c_i] bounds these pieces produce. *)
module type MACHINE = sig
  val id : string
  (** Stable short name ("e32", "m7"): CLI value, serve-protocol field,
      and cache-key component — changing it invalidates cached bounds. *)

  val description : string

  val fetch : Icache.config
  (** Default instruction-fetch configuration. A direct-mapped i-cache
      for cached cores; a flash prefetch buffer is the degenerate case
      with exactly one line ([size_bytes = line_bytes]), which the
      shared {!Icache}/{!Cost} machinery models soundly unchanged. *)

  val issue : dcache:bool -> I.t -> int
  (** Full (non-overlapped) execution cycles of one instruction,
      excluding fetch misses and pipeline stalls. With [~dcache:true] a
      load costs only its pipeline base; the memory time is charged by
      the data-cache model (hit in the best case, miss in the worst). *)

  val term_bounds : I.terminator -> int * int
  (** (best, worst) cycles of a block terminator. *)

  val term_actual : I.terminator -> taken:bool -> int
  (** Cycles actually spent given the branch outcome; always within
      {!term_bounds}. *)

  val stall_after : I.t -> I.t -> int
  (** Deterministic stall suffered by the second instruction given the
      one just before it (load-use interlock and friends). *)

  val resident_ok : fetch:Icache.config -> lo:int -> hi:int -> bool
  (** May the first-miss refinement assume that code in the address
      range [lo, hi) stays fetch-resident across loop iterations under
      [fetch]? For a direct-mapped cache that is "the region fits in
      the cache"; for a one-line prefetch buffer only a single line
      ever survives. *)
end

type t = (module MACHINE)

(* --- e32: the i960KB-style core the repository grew up on ------------- *)

(* The numbers play the role of the "hardware manual" of Section IV: a
   4-stage pipelined RISC in the spirit of the i960KB, with single-cycle
   ALU operations, a multi-cycle multiplier/divider, a slow FPU, uncached
   data memory with a fixed access time, and expensive call/return (the
   i960 spills its register cache on call). *)
module E32 = struct
  let id = "e32"
  let description =
    "i960KB-style 4-stage RISC, 512 B direct-mapped i-cache"

  let fetch = Icache.i960kb

  (* loads on the uncached path pay [load_base + flat_memory_latency];
     with a data cache the latency term is replaced by hit/miss timing *)
  let load_base = 2
  let flat_memory_latency = 1

  let issue ~dcache instr =
    match instr with
    | I.Alu ((I.Add | I.Sub | I.And | I.Or | I.Xor | I.Shl | I.Shr), _, _, _)
      -> 1
    | I.Alu (I.Mul, _, _, _) -> 4
    | I.Alu ((I.Div | I.Rem), _, _, _) -> 18
    | I.Fpu ((I.Fadd | I.Fsub), _, _, _) -> 4
    | I.Fpu (I.Fmul, _, _, _) -> 6
    | I.Fpu (I.Fdiv, _, _, _) -> 20
    | I.Icmp _ -> 1
    | I.Fcmp _ -> 3
    | I.Mov _ -> 1
    | I.Itof _ | I.Ftoi _ -> 3
    | I.Load _ -> if dcache then load_base else load_base + flat_memory_latency
    | I.Store _ -> 2
    | I.Call _ -> 8

  let term_bounds = function
    | I.Jump _ -> (2, 2)
    | I.Branch _ -> (1, 3) (* not taken 1, taken 3 (refill) *)
    | I.Return _ -> (7, 7)

  let term_actual term ~taken =
    match term with
    | I.Jump _ -> 2
    | I.Branch _ -> if taken then 3 else 1
    | I.Return _ -> 7

  (* the only modelled hazard is the load-use interlock (Section IV: "for
     each assembly instruction ... we analyze its adjacent instructions
     within the basic block"); it depends on the instruction sequence, not
     on data, so best and worst case pay it alike *)
  let load_use_stall = 1

  let stall_after prev cur =
    match prev with
    | I.Load (dst, _) -> if List.mem dst (I.uses cur) then load_use_stall else 0
    | I.Alu _ | I.Fpu _ | I.Icmp _ | I.Fcmp _ | I.Mov _ | I.Itof _ | I.Ftoi _
    | I.Store _ | I.Call _ -> 0

  (* the exact predicate the refinement used before machines existed:
     the loop's code fits in the cache, so after one full iteration
     every line it touches is resident *)
  let resident_ok ~fetch ~lo ~hi = hi - lo <= fetch.Icache.size_bytes
end

(* --- m7: an ARMv7-M-style core --------------------------------------- *)

(* Single-issue Cortex-M-flavoured pipeline: fast multiplier, early-out
   divider, a slower load-use interlock, cheap calls (no register-cache
   spill), and no i-cache — instructions come from wait-state flash
   behind a one-line prefetch buffer, modelled as the degenerate
   direct-mapped cache with a single 32 B line and the wait-state cost
   as its miss penalty (the shape platin uses for armv7m). *)
module M7 = struct
  let id = "m7"
  let description =
    "ARMv7-M-style core, wait-state flash behind a 32 B prefetch buffer"

  let fetch = { Icache.size_bytes = 32; line_bytes = 32; miss_penalty = 5 }

  let load_base = 1

  let issue ~dcache instr =
    match instr with
    | I.Alu ((I.Add | I.Sub | I.And | I.Or | I.Xor | I.Shl | I.Shr), _, _, _)
      -> 1
    | I.Alu (I.Mul, _, _, _) -> 1
    | I.Alu ((I.Div | I.Rem), _, _, _) -> 12
    | I.Fpu ((I.Fadd | I.Fsub), _, _, _) -> 2
    | I.Fpu (I.Fmul, _, _, _) -> 3
    | I.Fpu (I.Fdiv, _, _, _) -> 14
    | I.Icmp _ -> 1
    | I.Fcmp _ -> 2
    | I.Mov _ -> 1
    | I.Itof _ | I.Ftoi _ -> 2
    | I.Load _ -> if dcache then load_base else load_base + 1
    | I.Store _ -> 1
    | I.Call _ -> 4

  let term_bounds = function
    | I.Jump _ -> (2, 2)
    | I.Branch _ -> (1, 3) (* not taken 1, taken 3 (refill) *)
    | I.Return _ -> (4, 4)

  let term_actual term ~taken =
    match term with
    | I.Jump _ -> 2
    | I.Branch _ -> if taken then 3 else 1
    | I.Return _ -> 4

  let load_use_stall = 2

  let stall_after prev cur =
    match prev with
    | I.Load (dst, _) -> if List.mem dst (I.uses cur) then load_use_stall else 0
    | I.Alu _ | I.Fpu _ | I.Icmp _ | I.Fcmp _ | I.Mov _ | I.Itof _ | I.Ftoi _
    | I.Store _ | I.Call _ -> 0

  (* only one line survives in the prefetch buffer, so residency across
     iterations needs the whole region inside a single aligned line *)
  let resident_ok ~fetch ~lo ~hi =
    hi > lo
    && lo / fetch.Icache.line_bytes = (hi - 1) / fetch.Icache.line_bytes
end

let e32 : t = (module E32)
let m7 : t = (module M7)
let all = [ e32; m7 ]

let id (module M : MACHINE) = M.id
let description (module M : MACHINE) = M.description
let fetch (module M : MACHINE) = M.fetch

let of_string s =
  match List.find_opt (fun (module M : MACHINE) -> M.id = s) all with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown machine %S (expected %s)" s
         (String.concat " | " (List.map id all)))

(* --- machine-derived decode tables (simulator fast path) -------------- *)

let issue_table (module M : MACHINE) ?(dcache = false) instrs =
  Array.map (M.issue ~dcache) instrs

let stall_table (module M : MACHINE) instrs =
  let n = Array.length instrs in
  let t = Array.make n 0 in
  for i = 1 to n - 1 do
    t.(i) <- M.stall_after instrs.(i - 1) instrs.(i)
  done;
  t

let block_stalls (module M : MACHINE) instrs =
  let total = ref 0 in
  for i = 1 to Array.length instrs - 1 do
    total := !total + M.stall_after instrs.(i - 1) instrs.(i)
  done;
  !total
