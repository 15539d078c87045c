module I = Ipet_isa.Instr

(* A machine model is a table of cycle counts plus the default
   instruction-fetch geometry. The cost bounds and the cycle simulator
   read the same numbers through the same three functions ([issue],
   [term], [stall_after]), so the bound and the board cannot drift
   apart. The IPET formulation itself never looks inside: it only
   consumes the per-block [c_i] bounds these numbers produce. *)
type t = {
  id : string;
  description : string;
  fetch : Icache.config;
  (* issue cycles *)
  alu : int; mul : int; div : int;
  fadd : int; fmul : int; fdiv : int;
  icmp : int; fcmp : int; mov : int; convert : int;
  load : int; memory_latency : int; store : int; call : int;
  (* terminator cycles *)
  jump : int; branch_taken : int; branch_not_taken : int; return : int;
  load_use_stall : int;
}

(* The numbers play the role of the "hardware manual" of Section IV: a
   4-stage pipelined RISC in the spirit of the i960KB, with single-cycle
   ALU operations, a multi-cycle multiplier/divider, a slow FPU, uncached
   data memory with a fixed access time, and expensive call/return (the
   i960 spills its register cache on call). A taken branch refills the
   pipeline. *)
let e32 =
  { id = "e32";
    description = "i960KB-style 4-stage RISC, 512 B direct-mapped i-cache";
    fetch = Icache.i960kb;
    alu = 1; mul = 4; div = 18;
    fadd = 4; fmul = 6; fdiv = 20;
    icmp = 1; fcmp = 3; mov = 1; convert = 3;
    load = 2; memory_latency = 1; store = 2; call = 8;
    jump = 2; branch_taken = 3; branch_not_taken = 1; return = 7;
    load_use_stall = 1 }

(* Single-issue Cortex-M-flavoured pipeline: fast multiplier, early-out
   divider, a slower load-use interlock, cheap calls (no register-cache
   spill), and no i-cache — instructions come from wait-state flash
   behind a one-line prefetch buffer, modelled as the degenerate
   direct-mapped cache with a single 32 B line and the wait-state cost
   as its miss penalty (the shape platin uses for armv7m). *)
let m7 =
  { id = "m7";
    description =
      "ARMv7-M-style core, wait-state flash behind a 32 B prefetch buffer";
    fetch = { Icache.size_bytes = 32; line_bytes = 32; miss_penalty = 5 };
    alu = 1; mul = 1; div = 12;
    fadd = 2; fmul = 3; fdiv = 14;
    icmp = 1; fcmp = 2; mov = 1; convert = 2;
    load = 1; memory_latency = 1; store = 1; call = 4;
    jump = 2; branch_taken = 3; branch_not_taken = 1; return = 4;
    load_use_stall = 2 }

let all = [ e32; m7 ]

let id m = m.id

let of_string s =
  match List.find_opt (fun m -> m.id = s) all with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "unknown machine %S (expected %s)" s
         (String.concat " | " (List.map id all)))

let issue m ~dcache instr =
  match instr with
  | I.Alu ((I.Add | I.Sub | I.And | I.Or | I.Xor | I.Shl | I.Shr), _, _, _) ->
    m.alu
  | I.Alu (I.Mul, _, _, _) -> m.mul
  | I.Alu ((I.Div | I.Rem), _, _, _) -> m.div
  | I.Fpu ((I.Fadd | I.Fsub), _, _, _) -> m.fadd
  | I.Fpu (I.Fmul, _, _, _) -> m.fmul
  | I.Fpu (I.Fdiv, _, _, _) -> m.fdiv
  | I.Icmp _ -> m.icmp
  | I.Fcmp _ -> m.fcmp
  | I.Mov _ -> m.mov
  | I.Itof _ | I.Ftoi _ -> m.convert
  | I.Load _ -> if dcache then m.load else m.load + m.memory_latency
  | I.Store _ -> m.store
  | I.Call _ -> m.call

let term m ~taken = function
  | I.Jump _ -> m.jump
  | I.Branch _ -> if taken then m.branch_taken else m.branch_not_taken
  | I.Return _ -> m.return

let term_bounds m t =
  let a = term m ~taken:true t and b = term m ~taken:false t in
  (min a b, max a b)

(* the only modelled hazard is the load-use interlock (Section IV: "for
   each assembly instruction ... we analyze its adjacent instructions
   within the basic block"); it depends on the instruction sequence, not
   on data, so best and worst case pay it alike *)
let stall_after m prev cur =
  match prev with
  | I.Load (dst, _) -> if List.mem dst (I.uses cur) then m.load_use_stall else 0
  | I.Alu _ | I.Fpu _ | I.Icmp _ | I.Fcmp _ | I.Mov _ | I.Itof _ | I.Ftoi _
  | I.Store _ | I.Call _ -> 0

let instr_cycles m ~dcache instrs =
  Array.mapi
    (fun i instr ->
      issue m ~dcache instr
      + if i = 0 then 0 else stall_after m instrs.(i - 1) instr)
    instrs
