module I = Ipet_isa.Instr
module P = Ipet_isa.Prog
module V = Ipet_isa.Value
module Layout = Ipet_isa.Layout
module Icache = Ipet_machine.Icache
module Machine = Ipet_machine.Machine

exception Runtime_error of string
exception Out_of_fuel

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* --- decoded program ----------------------------------------------------
   [create] compiles the program once into flat, integer-indexed structures
   so the execution loop touches no hashtable, performs no per-instruction
   timing analysis and no layout lookups:
   - every (func, block) is interned into a dense block slot; plain counters
     are [int array]s indexed by slot, as are edge and call-site counters;
   - per block, the fetch addresses are pre-mapped to i-cache (tag index,
     line) pairs and each instruction's cycles (issue plus load-use stall)
     are read once from the machine table the cost bounds also sum;
   - call sites carry their resolved callee and statically-known occurrence
     slot, so a call performs no function-table search;
   - context-qualified counters live in a calling-context tree whose nodes
     are reached in O(1) from the per-site child arrays. *)

type dcall = {
  c_slot : int;                 (* call-site counter slot *)
  c_callee : int;               (* dfunc index, -1 if the name is unknown *)
  c_callee_name : string;
  c_nargs : int;
  c_args : I.operand array;
}

type dterm =
  | D_jump of int * int                       (* target block, edge slot *)
  | D_branch of I.reg * int * int * int * int (* reg, t_tgt, t_slot, f_tgt, f_slot *)
  | D_return of I.operand option

type dblock = {
  b_slot : int;                 (* dense block counter slot *)
  b_instrs : I.t array;
  b_fetch_idx : int array;      (* length n+1: i-cache tag index per fetch *)
  b_fetch_line : int array;     (* length n+1: i-cache line per fetch *)
  b_cost : int array;           (* length n: issue + stall-before cycles *)
  b_calls : dcall array;        (* in occurrence order *)
  b_term : dterm;
  b_term_taken : int;           (* terminator cycles (taken / any) *)
  b_term_nottaken : int;
}

type dfunc = {
  d_index : int;
  d_name : string;
  d_nparams : int;
  d_frame_words : int;
  d_nregs : int;                (* registers the function can touch *)
  d_blocks : dblock array;
}

(* calling-context tree node: one per distinct call path from the root.
   Counter arrays share the global slot numbering; [x_children] is indexed
   by call-site slot, so descending at a call is a single array read. *)
type ctx = {
  x_counts : int array;
  x_edges : int array;
  x_calls : int array;
  x_entries : int array;        (* per dfunc index *)
  x_children : ctx option array;
}

type t = {
  prog : P.t;
  layout : Layout.t;
  cache : Icache.t;
  dcache : Icache.t option;
  memory : V.t array;
  stack_base : int;
  mutable sp : int;
  mutable fuel : int;
  fuel_budget : int;
  mutable cycle_count : int;
  mutable instr_count : int;
  (* i-cache fetch path, fully inlined: [itags] aliases the cache's tag
     store; hits and misses are tallied here instead of in [cache] *)
  itags : int array;
  mutable ihits : int;
  mutable imisses : int;
  mutable hits0 : int;  (* cache stats baseline for reset_stats *)
  mutable misses0 : int;
  mutable block_hook : (string -> int -> unit) option;
  miss_penalty : int;
  (* profile mode: per-block self cycles (callee time excluded) and per-set
     i-cache hit/miss tallies. The flag is immutable so the dispatch in
     [run_block] is a predictable branch; with it off the execution loop is
     byte-for-byte the unprofiled one. *)
  profile : bool;
  mutable prof_callee : int;     (* callee cycles within the current block *)
  prof_cycles : int array;       (* per block slot *)
  line_hits : int array;         (* per i-cache set *)
  line_misses : int array;
  (* decoded program *)
  dfuncs : dfunc array;
  func_index : (string, int) Hashtbl.t;
  nblocks : int;
  nedges : int;
  ncalls : int;
  block_key : (string * int) array;            (* slot -> key *)
  block_slot : (string * int, int) Hashtbl.t;  (* key -> slot (cold paths) *)
  edge_slot : (string * int * int, int) Hashtbl.t;
  call_slot : (string * int * int, int) Hashtbl.t;
  (* flat counters *)
  counts : int array;
  edge_counts : int array;
  call_counts : int array;
  (* context tree *)
  mutable root_ctx : ctx;
  mutable cur_ctx : ctx;
}

let intern table next key =
  match Hashtbl.find_opt table key with
  | Some slot -> slot
  | None ->
    let slot = !next in
    Hashtbl.add table key slot;
    incr next;
    slot

let decode_block ~mach ~cache_cfg ~dcache ~layout ~func_index ~block_slot
    ~edge_slot ~call_slot ~next_block ~next_edge ~next_call (f : P.func)
    (b : P.block) =
  let fname = f.P.name in
  let n = Array.length b.P.instrs in
  let base = Layout.block_addr layout ~func:fname ~block:b.P.id in
  let fetch_idx = Array.make (n + 1) 0 in
  let fetch_line = Array.make (n + 1) 0 in
  for i = 0 to n do
    let index, line = Icache.slot_of cache_cfg (base + (i * I.bytes_per_instr)) in
    fetch_idx.(i) <- index;
    fetch_line.(i) <- line
  done;
  let cost = Machine.instr_cycles mach ~dcache b.P.instrs in
  let calls = ref [] in
  Array.iter
    (function
      | I.Call (_, callee, args) ->
        let occurrence = List.length !calls in
        calls :=
          { c_slot = intern call_slot next_call (fname, b.P.id, occurrence);
            c_callee =
              Option.value ~default:(-1)
                (Hashtbl.find_opt func_index callee);
            c_callee_name = callee;
            c_nargs = List.length args;
            c_args = Array.of_list args }
          :: !calls
      | I.Alu _ | I.Fpu _ | I.Icmp _ | I.Fcmp _ | I.Mov _ | I.Itof _
      | I.Ftoi _ | I.Load _ | I.Store _ -> ())
    b.P.instrs;
  let edge dst = intern edge_slot next_edge (fname, b.P.id, dst) in
  let term =
    match b.P.term with
    | I.Jump tgt -> D_jump (tgt, edge tgt)
    | I.Branch (r, t, f_) -> D_branch (r, t, edge t, f_, edge f_)
    | I.Return op -> D_return op
  in
  { b_slot = intern block_slot next_block (fname, b.P.id);
    b_instrs = b.P.instrs;
    b_fetch_idx = fetch_idx;
    b_fetch_line = fetch_line;
    b_cost = cost;
    b_calls = Array.of_list (List.rev !calls);
    b_term = term;
    b_term_taken = Machine.term mach ~taken:true b.P.term;
    b_term_nottaken = Machine.term mach ~taken:false b.P.term }

let max_reg (f : P.func) =
  let m = ref (max 15 (f.P.nparams - 1)) in
  Array.iter
    (fun (b : P.block) ->
      Array.iter
        (fun i -> List.iter (fun d -> if d > !m then m := d) (I.defs i))
        b.P.instrs)
    f.P.blocks;
  !m

let decode ~mach ~cache_cfg ~dcache ~layout (prog : P.t) =
  let func_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : P.func) ->
      if not (Hashtbl.mem func_index f.P.name) then
        Hashtbl.add func_index f.P.name i)
    prog.P.funcs;
  let block_slot = Hashtbl.create 64 in
  let edge_slot = Hashtbl.create 64 in
  let call_slot = Hashtbl.create 16 in
  let next_block = ref 0 and next_edge = ref 0 and next_call = ref 0 in
  let dfuncs =
    Array.mapi
      (fun i (f : P.func) ->
        { d_index = i;
          d_name = f.P.name;
          d_nparams = f.P.nparams;
          d_frame_words = f.P.frame_words;
          d_nregs = max_reg f + 1;
          d_blocks =
            Array.map
              (decode_block ~mach ~cache_cfg ~dcache ~layout ~func_index
                 ~block_slot ~edge_slot ~call_slot ~next_block ~next_edge
                 ~next_call f)
              f.P.blocks })
      prog.P.funcs
  in
  let block_key = Array.make (max 1 !next_block) ("", 0) in
  Hashtbl.iter (fun key slot -> block_key.(slot) <- key) block_slot;
  (dfuncs, func_index, block_slot, edge_slot, call_slot, block_key,
   !next_block, !next_edge, !next_call)

let new_ctx m =
  { x_counts = Array.make m.nblocks 0;
    x_edges = Array.make m.nedges 0;
    x_calls = Array.make m.ncalls 0;
    x_entries = Array.make (Array.length m.dfuncs) 0;
    x_children = Array.make m.ncalls None }

let create ?(mach = Machine.e32) ?cache ?dcache ?(stack_words = 1 lsl 16)
    ?(fuel = 50_000_000) ?(profile = false) (prog : P.t) ~init =
  let cache = match cache with Some c -> c | None -> mach.Machine.fetch in
  let memory = Array.make (prog.P.globals_words + stack_words) V.zero in
  List.iter (fun (addr, v) -> memory.(addr) <- v) init;
  let layout = Layout.make prog in
  let ( dfuncs, func_index, block_slot, edge_slot, call_slot, block_key,
        nblocks, nedges, ncalls ) =
    decode ~mach ~cache_cfg:cache ~dcache:(dcache <> None) ~layout prog
  in
  let icache = Icache.create cache in
  let itags = Icache.tag_array icache in
  let m =
    { prog;
      layout;
      cache = icache;
      dcache = Option.map Icache.create dcache;
      itags;
      ihits = 0;
      imisses = 0;
      memory;
      stack_base = prog.P.globals_words;
      sp = prog.P.globals_words;
      fuel;
      fuel_budget = fuel;
      cycle_count = 0;
      instr_count = 0;
      hits0 = 0;
      misses0 = 0;
      block_hook = None;
      miss_penalty = cache.Icache.miss_penalty;
      profile;
      prof_callee = 0;
      prof_cycles = Array.make (max 1 nblocks) 0;
      line_hits = Array.make (max 1 (Array.length itags)) 0;
      line_misses = Array.make (max 1 (Array.length itags)) 0;
      dfuncs;
      func_index;
      nblocks;
      nedges;
      ncalls;
      block_key;
      block_slot;
      edge_slot;
      call_slot;
      counts = Array.make (max 1 nblocks) 0;
      edge_counts = Array.make (max 1 nedges) 0;
      call_counts = Array.make (max 1 ncalls) 0;
      root_ctx =
        { x_counts = [||]; x_edges = [||]; x_calls = [||]; x_entries = [||];
          x_children = [||] };
      cur_ctx =
        { x_counts = [||]; x_edges = [||]; x_calls = [||]; x_entries = [||];
          x_children = [||] } }
  in
  let root = new_ctx m in
  m.root_ctx <- root;
  m.cur_ctx <- root;
  m

let program m = m.prog
let layout m = m.layout

let reset_memory m ~init =
  Array.fill m.memory 0 (Array.length m.memory) V.zero;
  List.iter (fun (addr, v) -> m.memory.(addr) <- v) init;
  m.sp <- m.stack_base

let reset_stats m =
  m.cycle_count <- 0;
  m.instr_count <- 0;
  m.fuel <- m.fuel_budget;
  m.hits0 <- m.ihits;
  m.misses0 <- m.imisses;
  Array.fill m.counts 0 (Array.length m.counts) 0;
  Array.fill m.edge_counts 0 (Array.length m.edge_counts) 0;
  Array.fill m.call_counts 0 (Array.length m.call_counts) 0;
  m.prof_callee <- 0;
  Array.fill m.prof_cycles 0 (Array.length m.prof_cycles) 0;
  Array.fill m.line_hits 0 (Array.length m.line_hits) 0;
  Array.fill m.line_misses 0 (Array.length m.line_misses) 0;
  let root = new_ctx m in
  m.root_ctx <- root;
  m.cur_ctx <- root

let set_block_hook m hook = m.block_hook <- Some hook

let flush_cache m =
  Icache.flush m.cache;
  Option.iter Icache.flush m.dcache

let dcache_hits m = match m.dcache with Some d -> Icache.hits d | None -> 0
let dcache_misses m = match m.dcache with Some d -> Icache.misses d | None -> 0

let global_slot m name =
  match P.find_global m.prog name with
  | g -> g
  | exception Not_found -> error "unknown global %s" name

let write_global m name index v =
  let g = global_slot m name in
  if index < 0 || index >= g.P.size_words then
    error "index %d out of bounds for global %s" index name;
  m.memory.(g.P.addr + index) <- v

let read_global m name index =
  let g = global_slot m name in
  if index < 0 || index >= g.P.size_words then
    error "index %d out of bounds for global %s" index name;
  m.memory.(g.P.addr + index)

let cycles m = m.cycle_count
let instructions m = m.instr_count
let cache_hits m = m.ihits - m.hits0
let cache_misses m = m.imisses - m.misses0

(* --- counter views ------------------------------------------------------ *)

let block_count m ~func ~block =
  match Hashtbl.find_opt m.block_slot (func, block) with
  | Some slot -> m.counts.(slot)
  | None -> 0

let block_counts m =
  let acc = ref [] in
  for slot = 0 to m.nblocks - 1 do
    if m.counts.(slot) > 0 then acc := (m.block_key.(slot), m.counts.(slot)) :: !acc
  done;
  List.sort compare !acc

let profiling m = m.profile

let block_cycles m =
  let acc = ref [] in
  for slot = 0 to m.nblocks - 1 do
    if m.prof_cycles.(slot) > 0 then
      acc := (m.block_key.(slot), m.prof_cycles.(slot)) :: !acc
  done;
  List.sort compare !acc

let pp_profile fmt m =
  let rows = ref [] in
  for slot = 0 to m.nblocks - 1 do
    if m.counts.(slot) > 0 then
      rows := (m.prof_cycles.(slot), m.block_key.(slot), m.counts.(slot)) :: !rows
  done;
  let rows =
    List.sort (fun (ca, ka, _) (cb, kb, _) -> compare (cb, ka) (ca, kb)) !rows
  in
  let total = List.fold_left (fun acc (c, _, _) -> acc + c) 0 rows in
  Format.fprintf fmt "@[<v>%-20s %-6s %10s %10s %7s@," "function" "block"
    "executions" "cycles" "share";
  List.iter
    (fun (cycles, (func, block), executions) ->
      Format.fprintf fmt "%-20s B%-5d %10d %10d %6.1f%%@," func block
        executions cycles
        (if total = 0 then 0.0
         else 100.0 *. float_of_int cycles /. float_of_int total))
    rows;
  Format.fprintf fmt "@]"

let icache_line_stats m =
  if not m.profile then [||]
  else
    Array.init (Array.length m.line_hits) (fun i ->
        (m.line_hits.(i), m.line_misses.(i)))

let edge_count m ~func ~src ~dst =
  match Hashtbl.find_opt m.edge_slot (func, src, dst) with
  | Some slot -> m.edge_counts.(slot)
  | None -> 0

let call_count m ~caller ~block ~occurrence =
  match Hashtbl.find_opt m.call_slot (caller, block, occurrence) with
  | Some slot -> m.call_counts.(slot)
  | None -> 0

type site = string * int * int

(* a path is given root-first; walk the tree downwards *)
let rec find_ctx m node = function
  | [] -> Some node
  | site :: rest ->
    (match Hashtbl.find_opt m.call_slot site with
     | None -> None
     | Some slot ->
       (match node.x_children.(slot) with
        | None -> None
        | Some child -> find_ctx m child rest))

let ctx_block_count m ~path ~func ~block =
  match find_ctx m m.root_ctx path with
  | None -> 0
  | Some node ->
    (match Hashtbl.find_opt m.block_slot (func, block) with
     | Some slot -> node.x_counts.(slot)
     | None -> 0)

let ctx_edge_count m ~path ~func ~src ~dst =
  match find_ctx m m.root_ctx path with
  | None -> 0
  | Some node ->
    (match Hashtbl.find_opt m.edge_slot (func, src, dst) with
     | Some slot -> node.x_edges.(slot)
     | None -> 0)

let ctx_call_count m ~path ~caller ~block ~occurrence =
  match find_ctx m m.root_ctx path with
  | None -> 0
  | Some node ->
    (match Hashtbl.find_opt m.call_slot (caller, block, occurrence) with
     | Some slot -> node.x_calls.(slot)
     | None -> 0)

let ctx_entry_count m ~path ~func =
  match find_ctx m m.root_ctx path with
  | None -> 0
  | Some node ->
    (match Hashtbl.find_opt m.func_index func with
     | Some fi -> node.x_entries.(fi)
     | None -> 0)

(* --- execution ---------------------------------------------------------- *)

type frame = { mutable regs : V.t array; fp : int }

let reg_value frame r =
  let a = frame.regs in
  if r < Array.length a then a.(r) else V.zero

let set_reg frame r v =
  let a = frame.regs in
  if r >= Array.length a then begin
    let bigger = Array.make (max (r + 1) (2 * Array.length a)) V.zero in
    Array.blit a 0 bigger 0 (Array.length a);
    frame.regs <- bigger
  end;
  frame.regs.(r) <- v

let operand_value frame = function
  | I.Reg r -> reg_value frame r
  | I.Imm i -> V.Vint i
  | I.Fimm f -> V.Vfloat f

(* unboxed operand reads for the hot ALU/compare paths: immediates skip the
   V.t round-trip entirely; the error behaviour of [V.as_int]/[V.as_float]
   on mistyped words is preserved *)
let int_operand frame = function
  | I.Imm i -> i
  | I.Reg r -> V.as_int (reg_value frame r)
  | I.Fimm f -> V.as_int (V.Vfloat f)

let float_operand frame = function
  | I.Fimm f -> f
  | I.Reg r -> V.as_float (reg_value frame r)
  | I.Imm i -> V.as_float (V.Vint i)

let mem_read m addr =
  if addr < 0 || addr >= Array.length m.memory then
    error "load from invalid address %d" addr;
  m.memory.(addr)

let mem_write m addr v =
  if addr < 0 || addr >= Array.length m.memory then
    error "store to invalid address %d" addr;
  m.memory.(addr) <- v

let effective_addr frame (a : I.addr) =
  let base = match a.I.base with I.Abs w -> w | I.Frame_base -> frame.fp in
  let index =
    match a.I.index with
    | None -> 0
    | Some op -> int_operand frame op
  in
  base + a.I.offset + index

(* every integer result is wrapped to 32-bit two's complement
   ([V.wrap32]): E32 registers are 32 bits wide, so Add/Sub/Mul overflow
   must wrap instead of growing to OCaml's native width.  Div/Rem wrap
   too, which defines the one overflowing case: [min_int32 / -1] wraps
   back to [min_int32] (and [min_int32 rem -1] is [0]), the usual
   non-trapping RISC behaviour.  Must mirror
   Ipet_lang.Optimize.fold_alu exactly. *)
let alu op a b =
  match op with
  | I.Add -> V.wrap32 (a + b)
  | I.Sub -> V.wrap32 (a - b)
  | I.Mul -> V.wrap32 (a * b)
  | I.Div -> if b = 0 then error "division by zero" else V.wrap32 (a / b)
  | I.Rem -> if b = 0 then error "modulo by zero" else V.wrap32 (a mod b)
  | I.And -> V.wrap32 (a land b)
  | I.Or -> V.wrap32 (a lor b)
  | I.Xor -> V.wrap32 (a lxor b)
  (* the E32 masks shift amounts to 6 bits; OCaml's lsl/asr are unspecified
     at >= Sys.int_size, so 63 is clamped (shl saturates to 0, shr to the
     sign). *)
  | I.Shl -> let s = b land 63 in V.wrap32 (if s > 62 then 0 else a lsl s)
  | I.Shr -> let s = b land 63 in V.wrap32 (a asr (if s > 62 then 62 else s))

let fpu op a b =
  match op with
  | I.Fadd -> a +. b
  | I.Fsub -> a -. b
  | I.Fmul -> a *. b
  | I.Fdiv -> a /. b

(* comparison results share two preallocated words instead of boxing a
   fresh Vint per executed compare *)
let v_one = V.Vint 1
let v_zero = V.zero

let icmp op a b =
  let r = match op with
    | I.Ceq -> a = b | I.Cne -> a <> b
    | I.Clt -> a < b | I.Cle -> a <= b | I.Cgt -> a > b | I.Cge -> a >= b
  in
  if r then v_one else v_zero

let fcmp op (a : float) (b : float) =
  let r = match op with
    | I.Ceq -> a = b | I.Cne -> a <> b
    | I.Clt -> a < b | I.Cle -> a <= b | I.Cgt -> a > b | I.Cge -> a >= b
  in
  if r then v_one else v_zero

let enter_func m (df : dfunc) =
  m.cur_ctx.x_entries.(df.d_index) <- m.cur_ctx.x_entries.(df.d_index) + 1;
  let frame = { regs = Array.make df.d_nregs V.zero; fp = m.sp } in
  if m.sp + df.d_frame_words > Array.length m.memory then
    error "stack overflow calling %s" df.d_name;
  m.sp <- m.sp + df.d_frame_words;
  frame

let rec call m fname args =
  let df =
    match Hashtbl.find_opt m.func_index fname with
    | Some i -> m.dfuncs.(i)
    | None -> error "call to unknown function %s" fname
  in
  if List.length args <> df.d_nparams then
    error "%s expects %d arguments, got %d" fname df.d_nparams (List.length args);
  let frame = enter_func m df in
  List.iteri (fun i v -> frame.regs.(i) <- v) args;
  let result = run_block m df frame 0 in
  m.sp <- m.sp - df.d_frame_words;
  result

and run_block m (df : dfunc) frame block_id =
  if m.fuel <= 0 then raise Out_of_fuel;
  m.fuel <- m.fuel - 1;
  let db = df.d_blocks.(block_id) in
  let slot = db.b_slot in
  m.counts.(slot) <- m.counts.(slot) + 1;
  let cx = m.cur_ctx in
  cx.x_counts.(slot) <- cx.x_counts.(slot) + 1;
  (match m.block_hook with
   | Some hook -> hook df.d_name block_id
   | None -> ());
  if m.profile then run_block_profiled m df frame db
  else begin
  let instrs = db.b_instrs in
  let fetch_idx = db.b_fetch_idx in
  let fetch_line = db.b_fetch_line in
  let cost = db.b_cost in
  let tags = m.itags in
  let n = Array.length instrs in
  let call_i = ref 0 in
  for i = 0 to n - 1 do
    let idx = fetch_idx.(i) and line = fetch_line.(i) in
    if tags.(idx) = line then m.ihits <- m.ihits + 1
    else begin
      tags.(idx) <- line;
      m.imisses <- m.imisses + 1;
      m.cycle_count <- m.cycle_count + m.miss_penalty
    end;
    m.instr_count <- m.instr_count + 1;
    m.cycle_count <- m.cycle_count + cost.(i);
    execute m db frame call_i instrs.(i)
  done;
  (* terminator fetch and execution *)
  let idx = fetch_idx.(n) and line = fetch_line.(n) in
  if tags.(idx) = line then m.ihits <- m.ihits + 1
  else begin
    tags.(idx) <- line;
    m.imisses <- m.imisses + 1;
    m.cycle_count <- m.cycle_count + m.miss_penalty
  end;
  m.instr_count <- m.instr_count + 1;
  match db.b_term with
  | D_jump (target, eslot) ->
    m.cycle_count <- m.cycle_count + db.b_term_taken;
    m.edge_counts.(eslot) <- m.edge_counts.(eslot) + 1;
    let cx = m.cur_ctx in
    cx.x_edges.(eslot) <- cx.x_edges.(eslot) + 1;
    run_block m df frame target
  | D_branch (r, t_tgt, t_slot, f_tgt, f_slot) ->
    let taken = V.truthy (reg_value frame r) in
    let target, eslot, tcost =
      if taken then (t_tgt, t_slot, db.b_term_taken)
      else (f_tgt, f_slot, db.b_term_nottaken)
    in
    m.cycle_count <- m.cycle_count + tcost;
    m.edge_counts.(eslot) <- m.edge_counts.(eslot) + 1;
    let cx = m.cur_ctx in
    cx.x_edges.(eslot) <- cx.x_edges.(eslot) + 1;
    run_block m df frame target
  | D_return op ->
    m.cycle_count <- m.cycle_count + db.b_term_taken;
    Option.map (operand_value frame) op
  end

(* the profiled twin of [run_block]'s body: same semantics, plus per-set
   i-cache tallies and, at the terminator, attribution of the block's self
   cycles [delta - callee cycles] — so dcache penalties and miss refetches
   land on the block that incurred them, and callee time does not. *)
and run_block_profiled m (df : dfunc) frame db =
  let slot = db.b_slot in
  let c0 = m.cycle_count in
  m.prof_callee <- 0;
  let instrs = db.b_instrs in
  let fetch_idx = db.b_fetch_idx in
  let fetch_line = db.b_fetch_line in
  let cost = db.b_cost in
  let tags = m.itags in
  let n = Array.length instrs in
  let call_i = ref 0 in
  for i = 0 to n - 1 do
    let idx = fetch_idx.(i) and line = fetch_line.(i) in
    if tags.(idx) = line then begin
      m.ihits <- m.ihits + 1;
      m.line_hits.(idx) <- m.line_hits.(idx) + 1
    end
    else begin
      tags.(idx) <- line;
      m.imisses <- m.imisses + 1;
      m.line_misses.(idx) <- m.line_misses.(idx) + 1;
      m.cycle_count <- m.cycle_count + m.miss_penalty
    end;
    m.instr_count <- m.instr_count + 1;
    m.cycle_count <- m.cycle_count + cost.(i);
    execute m db frame call_i instrs.(i)
  done;
  let idx = fetch_idx.(n) and line = fetch_line.(n) in
  if tags.(idx) = line then begin
    m.ihits <- m.ihits + 1;
    m.line_hits.(idx) <- m.line_hits.(idx) + 1
  end
  else begin
    tags.(idx) <- line;
    m.imisses <- m.imisses + 1;
    m.line_misses.(idx) <- m.line_misses.(idx) + 1;
    m.cycle_count <- m.cycle_count + m.miss_penalty
  end;
  m.instr_count <- m.instr_count + 1;
  match db.b_term with
  | D_jump (target, eslot) ->
    m.cycle_count <- m.cycle_count + db.b_term_taken;
    m.edge_counts.(eslot) <- m.edge_counts.(eslot) + 1;
    let cx = m.cur_ctx in
    cx.x_edges.(eslot) <- cx.x_edges.(eslot) + 1;
    m.prof_cycles.(slot) <-
      m.prof_cycles.(slot) + (m.cycle_count - c0 - m.prof_callee);
    run_block m df frame target
  | D_branch (r, t_tgt, t_slot, f_tgt, f_slot) ->
    let taken = V.truthy (reg_value frame r) in
    let target, eslot, tcost =
      if taken then (t_tgt, t_slot, db.b_term_taken)
      else (f_tgt, f_slot, db.b_term_nottaken)
    in
    m.cycle_count <- m.cycle_count + tcost;
    m.edge_counts.(eslot) <- m.edge_counts.(eslot) + 1;
    let cx = m.cur_ctx in
    cx.x_edges.(eslot) <- cx.x_edges.(eslot) + 1;
    m.prof_cycles.(slot) <-
      m.prof_cycles.(slot) + (m.cycle_count - c0 - m.prof_callee);
    run_block m df frame target
  | D_return op ->
    m.cycle_count <- m.cycle_count + db.b_term_taken;
    m.prof_cycles.(slot) <-
      m.prof_cycles.(slot) + (m.cycle_count - c0 - m.prof_callee);
    Option.map (operand_value frame) op

and execute m db frame call_i instr =
  match instr with
  | I.Alu (op, d, a, b) ->
    let a = int_operand frame a in
    let b = int_operand frame b in
    set_reg frame d (V.Vint (alu op a b))
  | I.Fpu (op, d, a, b) ->
    let a = float_operand frame a in
    let b = float_operand frame b in
    set_reg frame d (V.Vfloat (fpu op a b))
  | I.Icmp (op, d, a, b) ->
    let a = int_operand frame a in
    let b = int_operand frame b in
    set_reg frame d (icmp op a b)
  | I.Fcmp (op, d, a, b) ->
    let a = float_operand frame a in
    let b = float_operand frame b in
    set_reg frame d (fcmp op a b)
  | I.Mov (d, a) -> set_reg frame d (operand_value frame a)
  | I.Itof (d, a) ->
    set_reg frame d (V.Vfloat (float_of_int (V.as_int (operand_value frame a))))
  | I.Ftoi (d, a) ->
    let f = V.as_float (operand_value frame a) in
    if Float.is_nan f || Float.abs f >= 4.611686018427388e18 then
      error "float->int conversion out of range";
    set_reg frame d (V.Vint (V.wrap32 (int_of_float f)))
  | I.Load (d, a) ->
    let addr = effective_addr frame a in
    (match m.dcache with
     | Some dc ->
       (* word-addressed memory, 4 bytes per word in the cache's eyes *)
       if not (Icache.access dc (addr * 4)) then
         m.cycle_count <- m.cycle_count + (Icache.config dc).Icache.miss_penalty
     | None -> ());
    set_reg frame d (mem_read m addr)
  | I.Store (v, a) ->
    mem_write m (effective_addr frame a) (operand_value frame v)
  | I.Call (dst, _, _) ->
    let dc = db.b_calls.(!call_i) in
    incr call_i;
    m.call_counts.(dc.c_slot) <- m.call_counts.(dc.c_slot) + 1;
    let cx = m.cur_ctx in
    cx.x_calls.(dc.c_slot) <- cx.x_calls.(dc.c_slot) + 1;
    let nargs = dc.c_nargs in
    let args = dc.c_args in
    (* descend into the callee's context instance for this call site *)
    let child =
      match cx.x_children.(dc.c_slot) with
      | Some c -> c
      | None ->
        let c = new_ctx m in
        cx.x_children.(dc.c_slot) <- Some c;
        c
    in
    m.cur_ctx <- child;
    let callee =
      if dc.c_callee >= 0 then m.dfuncs.(dc.c_callee)
      else error "call to unknown function %s" dc.c_callee_name
    in
    if nargs <> callee.d_nparams then
      error "%s expects %d arguments, got %d" callee.d_name callee.d_nparams
        nargs;
    let callee_frame = enter_func m callee in
    for i = 0 to nargs - 1 do
      callee_frame.regs.(i) <- operand_value frame args.(i)
    done;
    let result =
      if not m.profile then run_block m callee callee_frame 0
      else begin
        (* the callee's blocks clobber [prof_callee] for their own calls;
           charge the whole callee delta to the calling block on return *)
        let saved = m.prof_callee in
        let before = m.cycle_count in
        let r = run_block m callee callee_frame 0 in
        m.prof_callee <- saved + (m.cycle_count - before);
        r
      end
    in
    m.sp <- m.sp - callee.d_frame_words;
    m.cur_ctx <- cx;
    (match (dst, result) with
     | Some d, Some v -> set_reg frame d v
     | Some d, None -> set_reg frame d V.zero
     | None, (Some _ | None) -> ())
