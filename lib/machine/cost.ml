module P = Ipet_isa.Prog
module Layout = Ipet_isa.Layout

type bounds = { best : int; worst : int; worst_warm : int }

module Int_set = Set.Make (Int)

(* cache slots (direct-mapped line indices) covered by a function's code *)
let own_slots cfg layout (f : P.func) =
  Array.fold_left
    (fun acc (b : P.block) ->
      let addr = Layout.block_addr layout ~func:f.P.name ~block:b.P.id in
      let size = Layout.block_size_bytes layout ~func:f.P.name ~block:b.P.id in
      List.init (Icache.lines_spanned cfg ~addr ~size) (fun i ->
          fst (Icache.slot_of cfg (addr + (i * cfg.Icache.line_bytes))))
      |> List.fold_left (fun acc slot -> Int_set.add slot acc) acc)
    Int_set.empty f.P.blocks

(* slots any code reachable from each function can occupy: a call inside a
   block may (transitively) fetch all of this, evicting the caller's own
   lines mid-block *)
let reachable_slots cfg layout (prog : P.t) =
  let slots = Hashtbl.create 16 in
  Array.iter
    (fun (f : P.func) -> Hashtbl.replace slots f.P.name (own_slots cfg layout f))
    prog.P.funcs;
  let find name =
    Option.value ~default:Int_set.empty (Hashtbl.find_opt slots name)
  in
  let callees =
    Array.map
      (fun (f : P.func) ->
        List.sort_uniq compare
          (List.concat_map P.calls_of_block (Array.to_list f.P.blocks)))
      prog.P.funcs
  in
  (* fixpoint: sets only grow and are bounded by the number of slots *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i (f : P.func) ->
        let cur = find f.P.name in
        let next =
          List.fold_left
            (fun acc callee -> Int_set.union acc (find callee))
            cur callees.(i)
        in
        if not (Int_set.equal next cur) then begin
          Hashtbl.replace slots f.P.name next;
          changed := true
        end)
      prog.P.funcs
  done;
  find

(* A call in the middle of a block hands the fetch stream to the callee;
   when control returns, a line the block had already fetched may have
   been evicted. Fetch addresses within a block only increase, so the only
   line that can miss twice is one a call {e splits} — the call and the
   next fetch (instruction or terminator) sharing a line — and only when
   some transitively reachable callee's code maps to that line's slot.
   One extra fill is charged per such call site. *)
let call_split_extra cfg ~callee_slots ~addr ~size (block : P.block) =
  let bpi = Ipet_isa.Instr.bytes_per_instr in
  let extra = ref 0 in
  Array.iteri
    (fun i instr ->
      match instr with
      | Ipet_isa.Instr.Call (_, callee, _) when (i + 1) * bpi < size ->
        let call_addr = addr + (i * bpi) in
        let next_addr = call_addr + bpi in
        if
          call_addr / cfg.Icache.line_bytes = next_addr / cfg.Icache.line_bytes
          && Int_set.mem
               (fst (Icache.slot_of cfg call_addr))
               (callee_slots callee)
        then incr extra
      | _ -> ())
    block.P.instrs;
  !extra

(* the block's own cycles from the machine table: best case assumes every
   data access hits (when a data cache is modelled), the worst case that
   every load misses *)
let block_bounds mach ~dcache ~callee_slots cfg layout ~func (block : P.block)
    =
  let body =
    Array.fold_left ( + ) 0
      (Machine.instr_cycles mach ~dcache:(dcache <> None) block.P.instrs)
  in
  let fill = match dcache with Some d -> d.Icache.miss_penalty | None -> 0 in
  let data_misses =
    Array.fold_left
      (fun n -> function Ipet_isa.Instr.Load _ -> n + fill | _ -> n)
      0 block.P.instrs
  in
  let term_best, term_worst = Machine.term_bounds mach block.P.term in
  let addr = Layout.block_addr layout ~func ~block:block.P.id in
  let size = Layout.block_size_bytes layout ~func ~block:block.P.id in
  let lines = Icache.lines_spanned cfg ~addr ~size in
  let refetches = call_split_extra cfg ~callee_slots ~addr ~size block in
  let worst_warm = body + data_misses + term_worst in
  { best = body + term_best;
    worst_warm;
    worst = worst_warm + ((lines + refetches) * cfg.Icache.miss_penalty) }

(* the whole-program slot fixpoint runs once per partial application *)
let func_bounds ~mach ?dcache ~prog cfg layout =
  let callee_slots = reachable_slots cfg layout prog in
  fun (func : P.func) ->
    Array.map
      (block_bounds mach ~dcache ~callee_slots cfg layout ~func:func.P.name)
      func.P.blocks
