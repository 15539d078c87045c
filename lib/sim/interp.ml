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
   - every (func, block) is interned into a dense block slot, and every
     edge and call site into a dense slot of its own;
   - per block, the fetch addresses are pre-mapped to i-cache (tag index,
     line) pairs, and the instruction cycles (issue plus load-use stall,
     read from the machine table the cost bounds also sum) are summed once;
   - call sites carry their resolved callee and statically-known occurrence
     slot, so a call performs no function-table search;
   - counters live in a calling-context tree whose nodes are reached in
     O(1) from the per-site child arrays.

   The loop records each event once: block entries, edges and calls per
   context node, i-fetch misses per fetch position and d-cache misses per
   block. Cycles, instructions, hits, the flat counts and the block profile
   are folds over those counters and the decoded tables, made when read.

   Registers are unboxed (see the execution section): the loop allocates
   no word for an ALU, compare, FPU or move result and calls no function of
   another module but the d-cache's probe, so no call goes through a
   module block in a build that does not inline across modules. *)

type dcall = {
  c_slot : int;                 (* call-site counter slot *)
  c_callee : int;               (* dfunc index, -1 if the name is unknown *)
  c_callee_name : string;
  c_nargs : int;
  c_args : I.operand array;
}

(* the [b_calls] entry of an instruction that is not a call *)
let no_call =
  { c_slot = -1; c_callee = -1; c_callee_name = ""; c_nargs = 0; c_args = [||] }

type dterm =
  | D_jump of int * int                       (* target block, edge slot *)
  | D_branch of I.reg * int * int * int * int (* reg, t_tgt, t_slot, f_tgt, f_slot *)
  | D_return of I.operand option

type dblock = {
  b_key : string * int;         (* (function, block id) *)
  b_slot : int;                 (* dense block counter slot *)
  b_instrs : I.t array;
  b_fetch_idx : int array;      (* length n+1: i-cache tag index per fetch *)
  b_fetch_line : int array;     (* length n+1: i-cache line per fetch *)
  b_fetch_base : int;           (* the block's first fetch miss slot *)
  b_cycles : int;               (* issue + stall cycles of the body *)
  b_loads : int;                (* d-cache accesses of the body *)
  b_calls : dcall array;        (* per instruction; [no_call] if none *)
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

let empty_ctx =
  { x_counts = [||]; x_edges = [||]; x_calls = [||]; x_entries = [||];
    x_children = [||] }

(* an activation's registers: register [r] holds [ints.(r)] or
   [floats.(r)], as [kinds] says *)
type frame = {
  ints : int array;
  floats : float array;         (* a flat float array: stores do not box *)
  kinds : Bytes.t;              (* [k_int] or [k_float] per register *)
  fp : int;
}

let k_int = '\000'
let k_float = '\001'
let k_void = '\002'            (* [ret] only: the callee returned nothing *)

let new_frame n fp =
  { ints = Array.make n 0; floats = Array.make n 0.0;
    kinds = Bytes.make n k_int; fp }

type t = {
  prog : P.t;
  layout : Layout.t;
  cache : Icache.t;
  dcache : Icache.t option;
  memory : V.t array;
  (* every word outside [[written_lo, written_hi]] is [V.zero] *)
  mutable written_lo : int;
  mutable written_hi : int;
  stack_base : int;
  mutable sp : int;
  mutable fuel : int;
  fuel_budget : int;
  (* i-cache fetch path, fully inlined: [itags] aliases the cache's tag
     store, and a miss is tallied at its fetch position *)
  itags : int array;
  fetch_misses : int array;     (* per fetch position ([b_fetch_base] + i) *)
  dcache_block_misses : int array;  (* per block slot *)
  miss_penalty : int;
  dmiss_penalty : int;
  ret : frame;                  (* one register: the last return value *)
  mutable block_hook : (string -> int -> unit) option;
  (* decoded program *)
  dfuncs : dfunc array;
  func_index : (string, int) Hashtbl.t;
  blocks : dblock array;                       (* slot -> block *)
  nedges : int;
  ncalls : int;
  block_slot : (string * int, int) Hashtbl.t;  (* key -> slot (cold paths) *)
  (* a branch whose outcomes share a target has a second, not-taken slot
     under the same key: [Hashtbl.find_all] yields both *)
  edge_slot : (string * int * int, int) Hashtbl.t;
  call_slot : (string * int * int, int) Hashtbl.t;
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
    ~edge_slot ~call_slot ~next_block ~next_edge ~next_call ~next_fetch
    (f : P.func) (b : P.block) =
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
  let fetch_base = !next_fetch in
  next_fetch := fetch_base + n + 1;
  let cost = Machine.instr_cycles mach ~dcache b.P.instrs in
  let calls = Array.make n no_call in
  let occurrence = ref 0 and loads = ref 0 in
  Array.iteri
    (fun i -> function
      | I.Call (_, callee, args) ->
        calls.(i) <-
          { c_slot = intern call_slot next_call (fname, b.P.id, !occurrence);
            c_callee =
              Option.value ~default:(-1)
                (Hashtbl.find_opt func_index callee);
            c_callee_name = callee;
            c_nargs = List.length args;
            c_args = Array.of_list args };
        incr occurrence
      | I.Load _ -> incr loads
      | I.Alu _ | I.Fpu _ | I.Icmp _ | I.Fcmp _ | I.Mov _ | I.Itof _
      | I.Ftoi _ | I.Store _ -> ())
    b.P.instrs;
  let edge dst = intern edge_slot next_edge (fname, b.P.id, dst) in
  let term =
    match b.P.term with
    | I.Jump tgt -> D_jump (tgt, edge tgt)
    | I.Branch (r, t, f_) when t = f_ ->
      (* both outcomes on one edge: the not-taken one keeps its own slot so
         its cycles stay apart *)
      let t_slot = edge t in
      let f_slot = !next_edge in
      Hashtbl.add edge_slot (fname, b.P.id, f_) f_slot;
      incr next_edge;
      D_branch (r, t, t_slot, f_, f_slot)
    | I.Branch (r, t, f_) -> D_branch (r, t, edge t, f_, edge f_)
    | I.Return op -> D_return op
  in
  { b_key = (fname, b.P.id);
    b_slot = intern block_slot next_block (fname, b.P.id);
    b_instrs = b.P.instrs;
    b_fetch_idx = fetch_idx;
    b_fetch_line = fetch_line;
    b_fetch_base = fetch_base;
    b_cycles = Array.fold_left ( + ) 0 cost;
    b_loads = (if dcache then !loads else 0);
    b_calls = calls;
    b_term = term;
    b_term_taken = Machine.term mach ~taken:true b.P.term;
    b_term_nottaken = Machine.term mach ~taken:false b.P.term }

(* the highest register the function's parameters and code name, so a
   frame of [max_reg f + 1] registers holds every register it reads *)
let max_reg (f : P.func) =
  let m = ref (f.P.nparams - 1) in
  let see r = if r > !m then m := r in
  Array.iter
    (fun (b : P.block) ->
      Array.iter
        (fun i ->
          List.iter see (I.defs i);
          List.iter see (I.uses i))
        b.P.instrs;
      match b.P.term with
      | I.Branch (r, _, _) | I.Return (Some (I.Reg r)) -> see r
      | I.Jump _ | I.Return (Some (I.Imm _ | I.Fimm _) | None) -> ())
    f.P.blocks;
  !m

let new_ctx m =
  { x_counts = Array.make (Array.length m.blocks) 0;
    x_edges = Array.make m.nedges 0;
    x_calls = Array.make m.ncalls 0;
    x_entries = Array.make (Array.length m.dfuncs) 0;
    x_children = Array.make m.ncalls None }

(* every write to memory goes through here, which keeps
   [written_lo]/[written_hi] covering it *)
let write_word m addr v =
  m.memory.(addr) <- v;
  if addr < m.written_lo then m.written_lo <- addr;
  if addr > m.written_hi then m.written_hi <- addr

let init_memory m init = List.iter (fun (addr, v) -> write_word m addr v) init

let max_stack_words = 1 lsl 16

(* The deepest sum of frame words along any call chain from any function,
   since [call] may enter anywhere, capped at [max_stack_words]; a
   recursive program gets the cap. *)
let stack_demand (prog : P.t) func_index =
  let n = Array.length prog.P.funcs in
  let depth = Array.make n (-1) (* not yet walked *) in
  let walking = Array.make n false in
  let exception Recursive in
  let rec visit i =
    if walking.(i) then raise Recursive;
    if depth.(i) < 0 then begin
      walking.(i) <- true;
      let f = prog.P.funcs.(i) in
      let deepest = ref 0 in
      Array.iter
        (fun (b : P.block) ->
          Array.iter
            (function
              | I.Call (_, callee, _) ->
                Option.iter
                  (fun j -> deepest := max !deepest (visit j))
                  (Hashtbl.find_opt func_index callee)
              | _ -> ())
            b.P.instrs)
        f.P.blocks;
      walking.(i) <- false;
      depth.(i) <- min max_stack_words (f.P.frame_words + !deepest)
    end;
    depth.(i)
  in
  match for i = 0 to n - 1 do ignore (visit i) done with
  | () -> Array.fold_left max 0 depth
  | exception Recursive -> max_stack_words

(* the most global memory a program may declare, 128 MiB of words *)
let max_global_words = 1 lsl 24

let create ?(mach = Machine.e32) ?cache ?dcache ?stack_words
    ?(fuel = 50_000_000) (prog : P.t) ~init =
  List.iter
    (fun (g : P.global) ->
      if g.P.addr < 0 || g.P.size_words < 0
         || g.P.size_words > max_global_words - g.P.addr
      then
        error "global %s at %d (%d words) lies outside the simulator's %d \
               words" g.P.gname g.P.addr g.P.size_words max_global_words)
    prog.P.globals;
  if prog.P.globals_words < 0 || prog.P.globals_words > max_global_words then
    error "the program declares %d words of globals, more than the \
           simulator's %d" prog.P.globals_words max_global_words;
  let cache = match cache with Some c -> c | None -> mach.Machine.fetch in
  let func_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : P.func) ->
      if not (Hashtbl.mem func_index f.P.name) then
        Hashtbl.add func_index f.P.name i)
    prog.P.funcs;
  let stack_words =
    match stack_words with
    | Some w -> w
    | None -> stack_demand prog func_index
  in
  let memory = Array.make (prog.P.globals_words + stack_words) V.zero in
  let layout = Layout.make prog in
  let block_slot = Hashtbl.create 64 in
  let edge_slot = Hashtbl.create 64 in
  let call_slot = Hashtbl.create 16 in
  let next_block = ref 0 and next_edge = ref 0 and next_call = ref 0 in
  let next_fetch = ref 0 in
  let dfuncs =
    Array.mapi
      (fun i (f : P.func) ->
        { d_index = i;
          d_name = f.P.name;
          d_nparams = f.P.nparams;
          d_frame_words = f.P.frame_words;
          d_nregs = max_reg f + 1;
          (* a later function of the same name is never called, and its
             blocks would share the first one's slots *)
          d_blocks =
            (if Hashtbl.find func_index f.P.name <> i then [||]
             else
               Array.map
                 (decode_block ~mach ~cache_cfg:cache ~dcache:(dcache <> None)
                    ~layout ~func_index ~block_slot ~edge_slot ~call_slot
                    ~next_block ~next_edge ~next_call ~next_fetch f)
                 f.P.blocks) })
      prog.P.funcs
  in
  let icache = Icache.create cache in
  let m =
    { prog;
      layout;
      cache = icache;
      dcache = Option.map Icache.create dcache;
      memory;
      written_lo = max_int;
      written_hi = -1;
      stack_base = prog.P.globals_words;
      sp = prog.P.globals_words;
      fuel;
      fuel_budget = fuel;
      itags = Icache.tag_array icache;
      fetch_misses = Array.make !next_fetch 0;
      dcache_block_misses = Array.make !next_block 0;
      miss_penalty = cache.Icache.miss_penalty;
      dmiss_penalty =
        (match dcache with Some d -> d.Icache.miss_penalty | None -> 0);
      ret = new_frame 1 0;
      block_hook = None;
      dfuncs;
      func_index;
      (* block slots are handed out in decode order *)
      blocks =
        Array.concat (List.map (fun df -> df.d_blocks) (Array.to_list dfuncs));
      nedges = !next_edge;
      ncalls = !next_call;
      block_slot;
      edge_slot;
      call_slot;
      root_ctx = empty_ctx;
      cur_ctx = empty_ctx }
  in
  let root = new_ctx m in
  m.root_ctx <- root;
  m.cur_ctx <- root;
  init_memory m init;
  m

let program m = m.prog
let layout m = m.layout

let reset_memory m ~init =
  if m.written_lo <= m.written_hi then
    Array.fill m.memory m.written_lo (m.written_hi - m.written_lo + 1) V.zero;
  m.written_lo <- max_int;
  m.written_hi <- -1;
  init_memory m init;
  m.sp <- m.stack_base

let zero a = Array.fill a 0 (Array.length a) 0

let rec clear_ctx x =
  zero x.x_counts;
  zero x.x_edges;
  zero x.x_calls;
  zero x.x_entries;
  Array.iter (Option.iter clear_ctx) x.x_children

(* the context tree is zeroed in place, not rebuilt: a zeroed node reads
   as an absent one, and a machine keeps its tree until its next run, long
   enough for a rebuilt one to be promoted to the major heap *)
let reset_stats m =
  m.fuel <- m.fuel_budget;
  zero m.fetch_misses;
  zero m.dcache_block_misses;
  clear_ctx m.root_ctx;
  m.cur_ctx <- m.root_ctx

let set_block_hook m hook = m.block_hook <- Some hook

let flush_cache m =
  Icache.flush m.cache;
  Option.iter Icache.flush m.dcache

let global_slot m name =
  match P.find_global m.prog name with
  | g -> g
  | exception Not_found -> error "unknown global %s" name

let write_global m name index v =
  let g = global_slot m name in
  if index < 0 || index >= g.P.size_words then
    error "index %d out of bounds for global %s" index name;
  write_word m (g.P.addr + index) v

let read_global m name index =
  let g = global_slot m name in
  if index < 0 || index >= g.P.size_words then
    error "index %d out of bounds for global %s" index name;
  m.memory.(g.P.addr + index)

(* --- derived views -------------------------------------------------------
   Cold-path folds over the event counters. *)

(* the whole run as one context node: every counter summed over the tree *)
let flat m =
  let total field =
    let acc = Array.copy (field m.root_ctx) in
    let rec add x =
      Array.iter
        (function
          | Some c ->
            Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) (field c);
            add c
          | None -> ())
        x.x_children
    in
    add m.root_ctx;
    acc
  in
  { x_counts = total (fun x -> x.x_counts);
    x_edges = total (fun x -> x.x_edges);
    x_calls = total (fun x -> x.x_calls);
    x_entries = total (fun x -> x.x_entries);
    x_children = [||] }

let sum = Array.fold_left ( + ) 0

let fetch_miss_count m (db : dblock) =
  let n = ref 0 in
  for i = db.b_fetch_base to db.b_fetch_base + Array.length db.b_instrs do
    n := !n + m.fetch_misses.(i)
  done;
  !n

(* per block slot: the cycles of its own executions — body, terminator by
   outcome, and the fetch and d-cache misses it took — callee time
   excluded *)
let self_cycles m =
  let run = flat m in
  Array.map
    (fun db ->
      let n = run.x_counts.(db.b_slot) in
      let term =
        match db.b_term with
        | D_branch (_, _, t_slot, _, f_slot) ->
          (run.x_edges.(t_slot) * db.b_term_taken)
          + (run.x_edges.(f_slot) * db.b_term_nottaken)
        | D_jump _ | D_return _ -> n * db.b_term_taken
      in
      (n * db.b_cycles) + term
      + (fetch_miss_count m db * m.miss_penalty)
      + (m.dcache_block_misses.(db.b_slot) * m.dmiss_penalty))
    m.blocks

let cycles m = sum (self_cycles m)

(* every block fetches its body and its terminator *)
let fold_executed m f =
  let run = flat m in
  Array.fold_left
    (fun acc db -> f acc db run.x_counts.(db.b_slot))
    0 m.blocks

let instructions m =
  fold_executed m (fun acc db n -> acc + (n * (Array.length db.b_instrs + 1)))

let cache_misses m = sum m.fetch_misses
let cache_hits m = instructions m - cache_misses m

let dcache_misses m = sum m.dcache_block_misses

let dcache_hits m =
  fold_executed m (fun acc db n -> acc + (n * db.b_loads)) - dcache_misses m

let icache_line_stats m =
  let run = flat m in
  let fetches = Array.make (Array.length m.itags) 0 in
  let misses = Array.make (Array.length m.itags) 0 in
  Array.iter
    (fun db ->
      let n = run.x_counts.(db.b_slot) in
      Array.iteri
        (fun i set ->
          fetches.(set) <- fetches.(set) + n;
          misses.(set) <- misses.(set) + m.fetch_misses.(db.b_fetch_base + i))
        db.b_fetch_idx)
    m.blocks;
  Array.map2 (fun f miss -> (f - miss, miss)) fetches misses

(* (key, v) for each block with [v > 0], by key *)
let per_block m values =
  let acc = ref [] in
  Array.iter
    (fun db ->
      let v = values.(db.b_slot) in
      if v > 0 then acc := (db.b_key, v) :: !acc)
    m.blocks;
  List.sort compare !acc

let block_counts m = per_block m (flat m).x_counts
let block_cycles m = per_block m (self_cycles m)

let pp_profile fmt m =
  let self = self_cycles m in
  let rows =
    List.map
      (fun (key, executions) ->
        (self.(Hashtbl.find m.block_slot key), key, executions))
      (block_counts m)
    |> List.sort (fun (ca, ka, _) (cb, kb, _) -> compare (cb, ka) (ca, kb))
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

(* counter views at one context node; the flat views read [flat m] *)

let node_block_count m node ~func ~block =
  match Hashtbl.find_opt m.block_slot (func, block) with
  | Some slot -> node.x_counts.(slot)
  | None -> 0

let node_edge_count m node ~func ~src ~dst =
  List.fold_left
    (fun acc slot -> acc + node.x_edges.(slot))
    0 (Hashtbl.find_all m.edge_slot (func, src, dst))

let node_call_count m node ~caller ~block ~occurrence =
  match Hashtbl.find_opt m.call_slot (caller, block, occurrence) with
  | Some slot -> node.x_calls.(slot)
  | None -> 0

let node_entry_count m node ~func =
  match Hashtbl.find_opt m.func_index func with
  | Some fi -> node.x_entries.(fi)
  | None -> 0

let block_count m = node_block_count m (flat m)
let edge_count m = node_edge_count m (flat m)
let call_count m = node_call_count m (flat m)

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

let at_path m path view =
  match find_ctx m m.root_ctx path with None -> 0 | Some node -> view node

let ctx_block_count m ~path ~func ~block =
  at_path m path (fun node -> node_block_count m node ~func ~block)

let ctx_edge_count m ~path ~func ~src ~dst =
  at_path m path (fun node -> node_edge_count m node ~func ~src ~dst)

let ctx_call_count m ~path ~caller ~block ~occurrence =
  at_path m path (fun node -> node_call_count m node ~caller ~block ~occurrence)

let ctx_entry_count m ~path ~func =
  at_path m path (fun node -> node_entry_count m node ~func)

(* --- execution -----------------------------------------------------------
   Registers are unboxed ([frame]): an ALU, compare, FPU or move result is
   written into the int or float file in place and allocates nothing. A
   word is boxed as a [V.t] only where it leaves the files: a store to
   memory, and {!call}'s arguments and result. A fresh frame reads int 0
   in every register, as an unwritten [V.t] register did, a branch on a
   float tests [<> 0.0] as [V.truthy] does, and a mistyped read is a
   [Runtime_error] with [V.as_int]'s or [V.as_float]'s message, raised
   where the read happens, so no handler wraps the loop. The helpers are
   inlined so that a float read is not boxed on return. *)

let float_word () = raise (Runtime_error "Value.as_int: float word")
let int_word () = raise (Runtime_error "Value.as_float: int word")

let[@inline] int_operand frame = function
  | I.Imm i -> i
  | I.Reg r ->
    if Bytes.get frame.kinds r = k_int then frame.ints.(r) else float_word ()
  | I.Fimm _ -> float_word ()

let[@inline] float_operand frame = function
  | I.Fimm x -> x
  | I.Reg r ->
    if Bytes.get frame.kinds r = k_float then frame.floats.(r) else int_word ()
  | I.Imm _ -> int_word ()

let[@inline] set_int frame d i =
  frame.ints.(d) <- i;
  Bytes.set frame.kinds d k_int

let[@inline] set_float frame d x =
  frame.floats.(d) <- x;
  Bytes.set frame.kinds d k_float

(* register [d] of [dst] takes register [r] of [src], kind and all *)
let[@inline] copy_reg dst d src r =
  Bytes.set dst.kinds d (Bytes.get src.kinds r);
  dst.ints.(d) <- src.ints.(r);
  dst.floats.(d) <- src.floats.(r)

(* register [d] of [dst] takes operand [a] of [src] *)
let[@inline] move dst d src = function
  | I.Reg r -> copy_reg dst d src r
  | I.Imm i -> set_int dst d i
  | I.Fimm x -> set_float dst d x

let box frame = function
  | I.Reg r ->
    if Bytes.get frame.kinds r = k_int then V.Vint frame.ints.(r)
    else V.Vfloat frame.floats.(r)
  | I.Imm i -> V.Vint i
  | I.Fimm x -> V.Vfloat x

let unbox frame d = function
  | V.Vint i -> set_int frame d i
  | V.Vfloat x -> set_float frame d x

let mem_read m addr =
  if addr < 0 || addr >= Array.length m.memory then
    error "load from invalid address %d" addr;
  m.memory.(addr)

let mem_write m addr v =
  if addr < 0 || addr >= Array.length m.memory then
    error "store to invalid address %d" addr;
  write_word m addr v

let effective_addr frame (a : I.addr) =
  let base = match a.I.base with I.Abs w -> w | I.Frame_base -> frame.fp in
  let index =
    match a.I.index with
    | None -> 0
    | Some op -> int_operand frame op
  in
  base + a.I.offset + index

(* [V.wrap32]'s body, so that the ALU calls no other module *)
let[@inline] wrap32 i = ((i land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000

(* every integer result is wrapped to 32-bit two's complement
   ([V.wrap32]): E32 registers are 32 bits wide, so Add/Sub/Mul overflow
   must wrap instead of growing to OCaml's native width.  Div/Rem wrap
   too, which defines the one overflowing case: [min_int32 / -1] wraps
   back to [min_int32] (and [min_int32 rem -1] is [0]), the usual
   non-trapping RISC behaviour.  Must mirror
   Ipet_lang.Optimize.fold_alu exactly. *)
let alu op a b =
  match op with
  | I.Add -> wrap32 (a + b)
  | I.Sub -> wrap32 (a - b)
  | I.Mul -> wrap32 (a * b)
  | I.Div -> if b = 0 then error "division by zero" else wrap32 (a / b)
  | I.Rem -> if b = 0 then error "modulo by zero" else wrap32 (a mod b)
  | I.And -> wrap32 (a land b)
  | I.Or -> wrap32 (a lor b)
  | I.Xor -> wrap32 (a lxor b)
  (* the E32 masks shift amounts to 6 bits; OCaml's lsl/asr are unspecified
     at >= Sys.int_size, so 63 is clamped (shl saturates to 0, shr to the
     sign). *)
  | I.Shl -> let s = b land 63 in wrap32 (if s > 62 then 0 else a lsl s)
  | I.Shr -> let s = b land 63 in wrap32 (a asr (if s > 62 then 62 else s))

let[@inline] fpu op a b =
  match op with
  | I.Fadd -> a +. b
  | I.Fsub -> a -. b
  | I.Fmul -> a *. b
  | I.Fdiv -> a /. b

let icmp op (a : int) b =
  match op with
  | I.Ceq -> a = b | I.Cne -> a <> b
  | I.Clt -> a < b | I.Cle -> a <= b | I.Cgt -> a > b | I.Cge -> a >= b

let[@inline] fcmp op (a : float) b =
  match op with
  | I.Ceq -> a = b | I.Cne -> a <> b
  | I.Clt -> a < b | I.Cle -> a <= b | I.Cgt -> a > b | I.Cge -> a >= b

let enter_func m (df : dfunc) =
  m.cur_ctx.x_entries.(df.d_index) <- m.cur_ctx.x_entries.(df.d_index) + 1;
  if m.sp + df.d_frame_words > Array.length m.memory then
    error "stack overflow calling %s" df.d_name;
  let frame = new_frame df.d_nregs m.sp in
  m.sp <- m.sp + df.d_frame_words;
  frame

(* a return leaves its word in [m.ret], which the caller reads at once *)
let rec run_block m (df : dfunc) frame block_id =
  if m.fuel <= 0 then raise Out_of_fuel;
  m.fuel <- m.fuel - 1;
  let db = df.d_blocks.(block_id) in
  let cx = m.cur_ctx in
  cx.x_counts.(db.b_slot) <- cx.x_counts.(db.b_slot) + 1;
  (match m.block_hook with
   | Some hook -> hook df.d_name block_id
   | None -> ());
  let instrs = db.b_instrs in
  let fetch_idx = db.b_fetch_idx in
  let fetch_line = db.b_fetch_line in
  let base = db.b_fetch_base in
  let tags = m.itags in
  let misses = m.fetch_misses in
  let n = Array.length instrs in
  for i = 0 to n - 1 do
    let idx = fetch_idx.(i) and line = fetch_line.(i) in
    if tags.(idx) <> line then begin
      tags.(idx) <- line;
      misses.(base + i) <- misses.(base + i) + 1
    end;
    execute m db frame i instrs.(i)
  done;
  (* the terminator's fetch *)
  let idx = fetch_idx.(n) and line = fetch_line.(n) in
  if tags.(idx) <> line then begin
    tags.(idx) <- line;
    misses.(base + n) <- misses.(base + n) + 1
  end;
  (* a call leaves [m.cur_ctx] as it found it *)
  match db.b_term with
  | D_jump (target, eslot) ->
    cx.x_edges.(eslot) <- cx.x_edges.(eslot) + 1;
    run_block m df frame target
  | D_branch (r, t_tgt, t_slot, f_tgt, f_slot) ->
    let taken =
      if Bytes.get frame.kinds r = k_int then frame.ints.(r) <> 0
      else frame.floats.(r) <> 0.0
    in
    if taken then begin
      cx.x_edges.(t_slot) <- cx.x_edges.(t_slot) + 1;
      run_block m df frame t_tgt
    end
    else begin
      cx.x_edges.(f_slot) <- cx.x_edges.(f_slot) + 1;
      run_block m df frame f_tgt
    end
  | D_return None -> Bytes.set m.ret.kinds 0 k_void
  | D_return (Some op) -> move m.ret 0 frame op

and execute m db frame i instr =
  match instr with
  | I.Alu (op, d, a, b) ->
    let a = int_operand frame a in
    let b = int_operand frame b in
    set_int frame d (alu op a b)
  | I.Fpu (op, d, a, b) ->
    let a = float_operand frame a in
    let b = float_operand frame b in
    set_float frame d (fpu op a b)
  | I.Icmp (op, d, a, b) ->
    let a = int_operand frame a in
    let b = int_operand frame b in
    set_int frame d (if icmp op a b then 1 else 0)
  | I.Fcmp (op, d, a, b) ->
    let a = float_operand frame a in
    let b = float_operand frame b in
    set_int frame d (if fcmp op a b then 1 else 0)
  | I.Mov (d, a) -> move frame d frame a
  | I.Itof (d, a) -> set_float frame d (float_of_int (int_operand frame a))
  | I.Ftoi (d, a) ->
    let f = float_operand frame a in
    if Float.is_nan f || Float.abs f >= 4.611686018427388e18 then
      error "float->int conversion out of range";
    set_int frame d (wrap32 (int_of_float f))
  | I.Load (d, a) ->
    let addr = effective_addr frame a in
    (* the address is checked before the d-cache sees it *)
    let v = mem_read m addr in
    (match m.dcache with
     | Some dc ->
       (* word-addressed memory, 4 bytes per word in the cache's eyes *)
       if not (Icache.access dc (addr * 4)) then
         m.dcache_block_misses.(db.b_slot) <-
           m.dcache_block_misses.(db.b_slot) + 1
     | None -> ());
    unbox frame d v
  | I.Store (v, a) -> mem_write m (effective_addr frame a) (box frame v)
  | I.Call (dst, _, _) ->
    let dc = db.b_calls.(i) in
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
      move callee_frame i frame args.(i)
    done;
    run_block m callee callee_frame 0;
    m.sp <- m.sp - callee.d_frame_words;
    m.cur_ctx <- cx;
    (match dst with
     | Some d ->
       if Bytes.get m.ret.kinds 0 = k_void then set_int frame d 0
       else copy_reg frame d m.ret 0
     | None -> ())

let call m fname args =
  let df =
    match Hashtbl.find_opt m.func_index fname with
    | Some i -> m.dfuncs.(i)
    | None -> error "call to unknown function %s" fname
  in
  if List.length args <> df.d_nparams then
    error "%s expects %d arguments, got %d" fname df.d_nparams (List.length args);
  let frame = enter_func m df in
  List.iteri (unbox frame) args;
  run_block m df frame 0;
  m.sp <- m.sp - df.d_frame_words;
  if Bytes.get m.ret.kinds 0 = k_void then None else Some (box m.ret (I.Reg 0))
