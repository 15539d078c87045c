module P = Ipet_isa.Prog
module Cfg = Ipet_cfg.Cfg
module L = Ipet_lp.Linexpr
module Lp = Ipet_lp.Lp_problem

type instance = {
  ctx : Flowvar.ctx;
  func : P.func;
  sites : (Callsite.t * string * Flowvar.ctx) list;
}

let func_sites (func : P.func) =
  Array.to_list func.P.blocks
  |> List.concat_map (fun (b : P.block) ->
    P.calls_of_block b
    |> List.mapi (fun occurrence callee ->
      ({ Callsite.block = b.P.id; occurrence }, callee)))

let instances prog ~root =
  (match Ipet_cfg.Callgraph.check_acyclic (Ipet_cfg.Callgraph.of_program prog) with
   | Ok () -> ()
   | Error cycle -> raise (Ipet_cfg.Callgraph.Recursive cycle));
  let root_func =
    match P.find_func_opt prog root with
    | Some f -> f
    | None -> invalid_arg ("Structural.instances: unknown root " ^ root)
  in
  let rec expand ctx (func : P.func) =
    let sites =
      List.map
        (fun (site, callee) ->
          let label =
            Flowvar.site_label ~caller:func.P.name ~block:site.Callsite.block
              ~occurrence:site.Callsite.occurrence
          in
          (site, callee, Flowvar.extend_ctx ctx ~site:label))
        (func_sites func)
    in
    let self = { ctx; func; sites } in
    self
    :: List.concat_map
      (fun (_, callee, child_ctx) -> expand child_ctx (P.find_func prog callee))
      sites
  in
  expand Flowvar.root_ctx root_func

let instance_constraints (inst : instance) ~is_root =
  let fname = inst.func.P.name in
  let ctx = inst.ctx in
  let cfg = Cfg.of_func inst.func in
  let reachable = Cfg.reachable cfg in
  let x block = Flowvar.var (Flowvar.Block { ctx; func = fname; block }) in
  let d src dst = Flowvar.var (Flowvar.Edge { ctx; func = fname; src; dst }) in
  let entry = Flowvar.var (Flowvar.Entry { ctx; func = fname }) in
  let exit_edge block = Flowvar.var (Flowvar.Exit { ctx; func = fname; block }) in
  let origin what block = Printf.sprintf "structural:%s:B%d:%s" fname block what in
  let acc = ref [] in
  let push c = acc := c :: !acc in
  let n = Cfg.nblocks cfg in
  for b = 0 to n - 1 do
    if not reachable.(b) then
      push (Lp.eq ~origin:(origin "unreachable" b) (x b) L.zero)
    else begin
      (* inflow *)
      let inflow =
        List.fold_left (fun acc p -> L.add acc (d p b)) L.zero (Cfg.preds cfg b)
      in
      let inflow = if b = Cfg.entry cfg then L.add inflow entry else inflow in
      push (Lp.eq ~origin:(origin "in" b) (x b) inflow);
      (* outflow *)
      let outflow =
        List.fold_left (fun acc s -> L.add acc (d b s)) L.zero (Cfg.succs cfg b)
      in
      let is_exit = match inst.func.P.blocks.(b).P.term with
        | Ipet_isa.Instr.Return _ -> true
        | Ipet_isa.Instr.Jump _ | Ipet_isa.Instr.Branch _ -> false
      in
      let outflow = if is_exit then L.add outflow (exit_edge b) else outflow in
      push (Lp.eq ~origin:(origin "out" b) (x b) outflow)
    end
  done;
  (* f-edges: each call site executes once per execution of its block, and
     feeds the callee instance's entry edge *)
  List.iter
    (fun (site, callee, child_ctx) ->
      let f =
        Flowvar.var
          (Flowvar.Fedge
             { ctx; func = fname; block = site.Callsite.block;
               occurrence = site.Callsite.occurrence })
      in
      push
        (Lp.eq
           ~origin:(Printf.sprintf "call:%s:B%d.%d" fname site.Callsite.block
                      site.Callsite.occurrence)
           f (x site.Callsite.block));
      let callee_entry = Flowvar.var (Flowvar.Entry { ctx = child_ctx; func = callee }) in
      push (Lp.eq ~origin:(Printf.sprintf "entry:%s" callee) callee_entry f))
    inst.sites;
  if is_root then
    push (Lp.eq ~origin:"root-entry" entry (L.of_int 1));
  List.rev !acc

let constraints _prog insts =
  List.concat
    (List.mapi (fun i inst -> instance_constraints inst ~is_root:(i = 0)) insts)

let block_sum insts ~func ~block =
  List.fold_left
    (fun acc inst ->
      if inst.func.P.name = func then
        L.add acc (Flowvar.var (Flowvar.Block { ctx = inst.ctx; func; block }))
      else acc)
    L.zero insts

let instance_at insts ~root ~path =
  let rec follow ctx fname = function
    | [] ->
      List.find_opt (fun inst -> inst.ctx = ctx && inst.func.P.name = fname) insts
    | (site : Callsite.t) :: rest ->
      (match
         List.find_opt
           (fun inst -> inst.ctx = ctx && inst.func.P.name = fname)
           insts
       with
       | None -> None
       | Some inst ->
         (match
            List.find_opt
              (fun (s, _, _) ->
                s.Callsite.block = site.Callsite.block
                && s.Callsite.occurrence = site.Callsite.occurrence)
              inst.sites
          with
          | None -> None
          | Some (_, callee, child_ctx) -> follow child_ctx callee rest))
  in
  follow Flowvar.root_ctx root path
