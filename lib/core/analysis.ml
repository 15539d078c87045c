module P = Ipet_isa.Prog
module Layout = Ipet_isa.Layout
module Cost = Ipet_machine.Cost
module Icache = Ipet_machine.Icache
module Machine = Ipet_machine.Machine
module L = Ipet_lp.Linexpr
module Lp = Ipet_lp.Lp_problem
module Ilp = Ipet_lp.Ilp
module Rat = Ipet_num.Rat
module Obs = Ipet_obs.Obs

exception Analysis_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Analysis_error s)) fmt

type spec = {
  prog : P.t;
  root : string;
  mach : Machine.t;
  cache : Icache.config;
  dcache : Icache.config option;
  loop_bounds : Annotation.t list;
  functional : Functional.t list;
  first_miss_refinement : bool;
  presolve : bool;
}

let spec ?(mach = Machine.e32) ?cache ?dcache ?(loop_bounds = [])
    ?(functional = []) ?(first_miss_refinement = false) ?(presolve = true)
    ~root prog =
  let cache = match cache with Some c -> c | None -> mach.Machine.fetch in
  { prog; root; mach; cache; dcache; loop_bounds; functional;
    first_miss_refinement; presolve }

type solver_stats = {
  sets_total : int;
  sets_pruned : int;
  sets_solved : int;
  sets_infeasible : int;
  lp_calls : int;
  bnb_nodes : int;
  simplex_pivots : int;
  refactorizations : int;
  all_first_lp_integral : bool;
  presolve_vars_before : int;
  presolve_vars_after : int;
  presolve_constrs_before : int;
  presolve_constrs_after : int;
  presolve_rounds : int;
}

type extreme = {
  cycles : int;
  counts : ((string * int) * int) list;
  binding : string list;
}

type certificate = {
  cert : Ipet_cert.Certificate.t;
  verdict : Ipet_cert.Checker.verdict;
  emit_seconds : float;
  emit_pivots : int;
  emit_source : Ipet_cert.Certify.source;
  check_seconds : float;
}

type result = {
  wcet : extreme;
  bcet : extreme;
  wcet_stats : solver_stats;
  bcet_stats : solver_stats;
  wcet_cert : certificate option;
  bcet_cert : certificate option;
}

let instances spec = Structural.instances spec.prog ~root:spec.root

let structural_constraints spec =
  Structural.constraints spec.prog (instances spec)

(* The Section IV refinement: inside a loop whose code provably stays
   resident (its lines map to distinct cache sets, hence no self-conflicts,
   and the loop makes no calls), a block's lines can miss at most once per
   loop entry. The worst-case objective then charges the block's warm cost
   per execution plus its full line-fill cost per entry of the outermost
   such loop, expressed on the loop's entry-edge variables. *)
let refinement_plan spec layout (func : P.func) =
  let cfg = Ipet_cfg.Cfg.of_func func in
  let dom = Ipet_cfg.Dominators.compute cfg in
  let loops = Ipet_cfg.Loops.detect cfg dom in
  let eligible (l : Ipet_cfg.Loops.loop) =
    let no_calls = ref true in
    let lo_addr = ref max_int and hi_addr = ref 0 in
    Array.iteri
      (fun b inside ->
        if inside then begin
          if P.calls_of_block func.P.blocks.(b) <> [] then no_calls := false;
          let addr = Layout.block_addr layout ~func:func.P.name ~block:b in
          let size = Layout.block_size_bytes layout ~func:func.P.name ~block:b in
          if addr < !lo_addr then lo_addr := addr;
          if addr + size > !hi_addr then hi_addr := addr + size
        end)
      l.Ipet_cfg.Loops.body;
    !no_calls && Icache.resident spec.cache ~lo:!lo_addr ~hi:!hi_addr
  in
  let eligible_loops = List.filter eligible loops in
  (* for each block, the outermost (smallest depth) eligible loop holding it *)
  let plan = Array.make (Array.length func.P.blocks) None in
  List.iter
    (fun (l : Ipet_cfg.Loops.loop) ->
      Array.iteri
        (fun b inside ->
          if inside then
            match plan.(b) with
            | Some (outer : Ipet_cfg.Loops.loop)
              when outer.Ipet_cfg.Loops.depth <= l.Ipet_cfg.Loops.depth -> ()
            | Some _ | None -> plan.(b) <- Some l)
        l.Ipet_cfg.Loops.body)
    eligible_loops;
  (cfg, plan)

(* One analysis's cost table: per function, the block cost bounds and —
   only when a first-miss WCET objective asks for it — the refinement
   plan, both computed once over one layout *)
type func_costs = {
  bounds : Cost.bounds array;
  plan : (Ipet_cfg.Cfg.t * Ipet_cfg.Loops.loop option array) Lazy.t;
}

type costs = {
  spec : spec;
  layout : Layout.t;
  bounds_of : (P.func -> Cost.bounds array) Lazy.t;
      (* one call-graph slot fixpoint for every function *)
  funcs : (string, func_costs) Hashtbl.t;
}

let costs spec =
  let layout = Layout.make spec.prog in
  { spec; layout;
    bounds_of =
      lazy
        (Cost.func_bounds ~mach:spec.mach ?dcache:spec.dcache ~prog:spec.prog
           spec.cache layout);
    funcs = Hashtbl.create 16 }

let func_costs t (func : P.func) =
  match Hashtbl.find_opt t.funcs func.P.name with
  | Some c -> c
  | None ->
    let spec = t.spec in
    let c =
      { bounds = Lazy.force t.bounds_of func;
        plan = lazy (refinement_plan spec t.layout func) }
    in
    Hashtbl.replace t.funcs func.P.name c;
    c

let block_costs spec =
  let t = costs spec in
  fun ~func -> (func_costs t (P.find_func spec.prog func)).bounds

(* the objective: Σ c_i·x_i over the blocks of the instances, each block
   also charged [callee g] per call it makes to [g]. Under the first-miss
   refinement, a WCET block inside a resident loop is charged its warm
   cost per execution plus one full line fill per entry of that loop *)
let objective ?(callee = fun _ -> 0) t insts direction =
  let refine = direction = Lp.Maximize && t.spec.first_miss_refinement in
  List.fold_left
    (fun acc (inst : Structural.instance) ->
      let func = inst.Structural.func in
      let fname = func.P.name and ctx = inst.Structural.ctx in
      let fc = func_costs t func in
      Array.fold_left
        (fun acc (b : P.block) ->
          let c = fc.bounds.(b.P.id) in
          let charge =
            List.fold_left (fun n g -> n + callee g) 0 (P.calls_of_block b)
          in
          let x coeff =
            L.var ~coeff:(Rat.of_int coeff)
              (Flowvar.name (Flowvar.Block { ctx; func = fname; block = b.P.id }))
          in
          (* the entry edges of the resident loop holding the block, if
             this objective refines it *)
          let resident =
            if not refine then None
            else
              let cfg, plan = Lazy.force fc.plan in
              Option.map (Ipet_cfg.Loops.entry_edges cfg) plan.(b.P.id)
          in
          match direction, resident with
          | Lp.Minimize, _ -> L.add acc (x (c.Cost.best + charge))
          | Lp.Maximize, None -> L.add acc (x (c.Cost.worst + charge))
          | Lp.Maximize, Some edges ->
            let entries =
              List.fold_left
                (fun e (src, dst) ->
                  L.add e
                    (Flowvar.var (Flowvar.Edge { ctx; func = fname; src; dst })))
                L.zero edges
            in
            let fill = c.Cost.worst - c.Cost.worst_warm in
            L.add acc
              (L.add (x (c.Cost.worst_warm + charge))
                 (L.scale (Rat.of_int fill) entries)))
        acc func.P.blocks)
    L.zero insts

(* an exact count or cycle figure as a native int; one beyond int63 is an
   analysis error that names it, [what ()] *)
let native what v =
  match Rat.to_int v with
  | n -> n
  | exception Failure _ ->
    fail "%s is %s, beyond the native integer range" (what ()) (Rat.to_string v)

(* aggregate a witness (as a lookup, absent variables zero) into
   per-(func, block) counts, summed exactly over the block's contexts *)
let block_counts insts env =
  let table = Hashtbl.create 32 in
  List.iter
    (fun (inst : Structural.instance) ->
      let fname = inst.Structural.func.P.name in
      Array.iter
        (fun (b : P.block) ->
          let v =
            env
              (Flowvar.name
                 (Flowvar.Block
                    { ctx = inst.Structural.ctx; func = fname; block = b.P.id }))
          in
          if not (Rat.is_zero v) then begin
            let key = (fname, b.P.id) in
            let cur =
              Option.value ~default:Rat.zero (Hashtbl.find_opt table key)
            in
            Hashtbl.replace table key (Rat.add cur v)
          end)
        inst.Structural.func.P.blocks)
    insts;
  Hashtbl.fold
    (fun ((fname, b) as k) v acc ->
      let what () = Printf.sprintf "the count of %s block B%d" fname b in
      (k, native what v) :: acc)
    table []
  |> List.sort compare

(* constraints with zero slack at the optimum, excluding plain flow
   equations: these are the loop bounds and path facts that actually
   determine the reported extreme *)
let binding_constraints constraints env =
  List.filter_map
    (fun (c : Lp.constr) ->
      match c.Lp.rel with
      | Lp.Eq -> None
      | Lp.Le | Lp.Ge ->
        if c.Lp.origin <> "" && Rat.is_zero (L.eval env c.Lp.expr)
        then Some c.Lp.origin
        else None)
    constraints
  |> List.sort_uniq compare

(* an extreme as reported: the optimum, the witness's block counts, and
   the constraints the witness makes tight *)
let extreme_of_witness insts (problem : Lp.t) ~bound witness =
  let env = Ipet_lp.Simplex.assignment_env witness in
  let extreme =
    match problem.Lp.direction with
    | Lp.Maximize -> "the WCET"
    | Lp.Minimize -> "the BCET"
  in
  { cycles = native (fun () -> extreme ^ " in cycles") bound;
    counts = block_counts insts env;
    binding = binding_constraints problem.Lp.constraints env }

(* A unit's ILPs: each conjunctive set's constraints, built and numbered
   once, and the two objectives. The presolve fixpoint and the checker's
   view both read the set's numbering. The fixpoint is computed by the
   first direction that solves the set and shared by the other; it
   records what the dual lift reads ([true]) only when a certificate
   needs it. The view is built by the first certificate emitted or
   checked on the set, and every later one, in either direction, digests
   and checks there *)
type constraint_set = {
  columns : Lp.Columns.t;
  mutable fixpoint : (bool * Ipet_lp.Presolve.fixpoint) option;
  mutable view : Ipet_cert.Checker.view option;
}

let set_problem set direction objective =
  Lp.make direction objective (Lp.Columns.constraints set.columns)

let set_fixpoint set ~lift =
  match set.fixpoint with
  | Some (lifts, fp) when lifts || not lift -> fp
  | Some _ | None ->
    let fp = Ipet_lp.Presolve.fixpoint ~integer:true ~lift set.columns in
    set.fixpoint <- Some (lift, fp);
    fp

let set_view set =
  match set.view with
  | Some v -> v
  | None ->
    let v = Ipet_cert.Checker.view set.columns in
    set.view <- Some v;
    v

type system = {
  sets : constraint_set list;
  wcet_objective : L.t;
  bcet_objective : L.t;
}

let system ~wcet ~bcet sets =
  { sets =
      List.map
        (fun cs -> { columns = Lp.Columns.make cs; fixpoint = None; view = None })
        sets;
    wcet_objective = wcet;
    bcet_objective = bcet }

let system_objective system = function
  | Lp.Maximize -> system.wcet_objective
  | Lp.Minimize -> system.bcet_objective

let system_problems system direction =
  let obj = system_objective system direction in
  List.map (fun set -> set_problem set direction obj) system.sets

(* Certify the winning bound: the root relaxation's row prices, lifted
   through presolve, are the dual multipliers for the original constraint
   set when they prove exactly the bound; otherwise one cold solve of the
   un-presolved LP recovers them (Certify). Then the trusted checker
   validates the whole package on the set's view, which the first emit
   builds and pays for. Production failure is an analysis error — the ILP
   was just solved to optimality, so its LP relaxation cannot be
   infeasible or unbounded — while a rejected certificate is carried in
   the result for the caller to surface. *)
let certify_extreme ~dir_label set problem value assignment root_duals =
  let produced, emit_seconds =
    Obs.timed (fun () ->
        Ipet_cert.Certify.emit ?root_duals:(Lazy.force root_duals)
          ~view:(set_view set) problem ~witness:assignment ~bound:value)
  in
  match produced with
  | Error e -> fail "certificate production failed (%s): %s" dir_label e
  | Ok { Ipet_cert.Certify.cert; pivots; source } ->
    let verdict, check_seconds =
      Obs.timed (fun () ->
          Ipet_cert.Checker.check_view (set_view set)
            problem.Lp.direction problem.Lp.objective cert)
    in
    { cert; verdict; emit_seconds; emit_pivots = pivots; emit_source = source;
      check_seconds }

let check_stored system direction (cert : Ipet_cert.Certificate.t) =
  let objective = system_objective system direction in
  List.find_map
    (fun set ->
      let view = set_view set in
      if
        String.equal cert.Ipet_cert.Certificate.digest
          (Ipet_cert.Checker.digest view direction objective)
      then
        Some
          ( set_problem set direction objective,
            Ipet_cert.Checker.check_view view direction objective cert )
      else None)
    system.sets

let solve_extreme ?(certify = false) spec insts system direction =
  (match system.sets with [] -> fail "no constraint set to solve" | _ :: _ -> ());
  let objective = system_objective system direction in
  let better a b =
    match direction with
    | Lp.Maximize -> Rat.compare a b > 0
    | Lp.Minimize -> Rat.compare a b < 0
  in
  let dir_label =
    match direction with Lp.Maximize -> "wcet" | Lp.Minimize -> "bcet"
  in
  let best = ref None in
  let lp_calls = ref 0 in
  let nodes = ref 0 in
  let pivots = ref 0 in
  let refactors = ref 0 in
  let infeasible = ref 0 in
  let all_first = ref true in
  let solved = ref 0 in
  let pv_before = ref 0 and pv_after = ref 0 in
  let pc_before = ref 0 and pc_after = ref 0 in
  let p_rounds = ref 0 in
  let record_presolve problem (stats : Ilp.stats) =
    match stats.Ilp.presolve with
    | Some p ->
      pv_before := !pv_before + p.Ipet_lp.Presolve.vars_before;
      pv_after := !pv_after + p.Ipet_lp.Presolve.vars_after;
      pc_before := !pc_before + p.Ipet_lp.Presolve.constrs_before;
      pc_after := !pc_after + p.Ipet_lp.Presolve.constrs_after;
      p_rounds := !p_rounds + p.Ipet_lp.Presolve.rounds
    | None ->
      let nv = Lp.num_variables problem and nc = Lp.num_constraints problem in
      pv_before := !pv_before + nv;
      pv_after := !pv_after + nv;
      pc_before := !pc_before + nc;
      pc_after := !pc_after + nc
  in
  let solve_set i set =
    let problem = set_problem set direction objective in
    let solve () =
      ( (set, problem),
        if spec.presolve then
          Ilp.solve_presolved
            (Ipet_lp.Presolve.emit (set_fixpoint set ~lift:certify) direction
               objective)
        else Ilp.solve ~presolve:false problem )
    in
    if not (Obs.enabled ()) then solve ()
    else
      Obs.span "ilp.solve"
        ~args:[ ("solver", dir_label); ("set", string_of_int i) ]
        (fun () ->
          let r, dt = Obs.timed solve in
          Obs.observe ~labels:[ ("solver", dir_label) ] "lp.solve_seconds" dt;
          r)
  in
  let results = List.mapi solve_set system.sets in
  List.iter
    (fun ((set, problem), result) ->
      incr solved;
      match result with
      | Ilp.Optimal { value; assignment; stats } ->
        lp_calls := !lp_calls + stats.Ilp.lp_calls;
        nodes := !nodes + stats.Ilp.nodes;
        pivots := !pivots + stats.Ilp.pivots;
        refactors := !refactors + stats.Ilp.refactorizations;
        record_presolve problem stats;
        if not stats.Ilp.first_lp_integral then all_first := false;
        (match !best with
         | Some (v, _, _, _, _) when not (better value v) -> ()
         | Some _ | None ->
           best := Some (value, assignment, set, problem, stats.Ilp.root_duals))
      | Ilp.Infeasible stats ->
        lp_calls := !lp_calls + stats.Ilp.lp_calls;
        nodes := !nodes + stats.Ilp.nodes;
        pivots := !pivots + stats.Ilp.pivots;
        refactors := !refactors + stats.Ilp.refactorizations;
        record_presolve problem stats;
        incr infeasible
      | Ilp.Unbounded _ ->
        fail
          "ILP unbounded while computing %s: a loop bound or functionality \
           constraint is missing"
          (match direction with Lp.Maximize -> "WCET" | Lp.Minimize -> "BCET"))
    results;
  match !best with
  | None -> fail "every functionality constraint set is infeasible"
  | Some (value, assignment, set, problem, root_duals) ->
    let certificate =
      if certify then
        Some (certify_extreme ~dir_label set problem value assignment root_duals)
      else None
    in
    let stats =
      { sets_total = !solved;  (* [analyze] reports the DNF's counts *)
        sets_pruned = 0;
        sets_solved = !solved;
        sets_infeasible = !infeasible;
        lp_calls = !lp_calls;
        bnb_nodes = !nodes;
        simplex_pivots = !pivots;
        refactorizations = !refactors;
        all_first_lp_integral = !all_first;
        presolve_vars_before = !pv_before;
        presolve_vars_after = !pv_after;
        presolve_constrs_before = !pc_before;
        presolve_constrs_after = !pc_after;
        presolve_rounds = !p_rounds }
    in
    ( extreme_of_witness insts problem ~bound:value assignment,
      stats,
      certificate )

(* the structural and loop-bound constraints of a set of instances — the
   whole program's, or one function's in isolation *)
let flow_constraints spec insts =
  let structural = Structural.constraints spec.prog insts in
  let loop_cs, unbounded = Annotation.constraints spec.prog insts spec.loop_bounds in
  (match unbounded with
   | [] -> ()
   | us ->
     let render (u : Annotation.unbounded) =
       if u.Annotation.header_line > 0 then
         Printf.sprintf "%s (header at line %d)" u.Annotation.ufunc
           u.Annotation.header_line
       else
         Printf.sprintf "%s (header block %d)" u.Annotation.ufunc
           u.Annotation.header_block
     in
     fail "missing loop bounds for: %s" (String.concat ", " (List.map render us)));
  structural @ loop_cs

let prepare spec =
  Obs.span "analysis.prepare" ~args:[ ("root", spec.root) ] (fun () ->
  let insts = instances spec in
  let base = flow_constraints spec insts in
  let sets = Functional.dnf spec.functional in
  let total = List.length sets in
  let sets, pruned = Functional.prune_null_sets sets in
  if sets = [] then fail "all %d functionality constraint sets are null" total;
  (insts, base, sets, total, pruned))

(* the constraints of each surviving conjunctive set: its functionality
   atoms, then the flow constraints *)
let set_constraints spec insts base sets =
  List.map
    (fun set ->
      List.map
        (fun atom -> Functional.atom_to_constr spec.prog insts ~root:spec.root atom)
        set
      @ base)
    sets

let build_system spec insts base sets =
  let costs = costs spec in
  system
    ~wcet:(objective costs insts Lp.Maximize)
    ~bcet:(objective costs insts Lp.Minimize)
    (set_constraints spec insts base sets)

let program_system spec =
  let insts, base, sets, _, _ = prepare spec in
  (insts, build_system spec insts base sets)

let direction_problems spec direction =
  let insts, base, sets, _, _ = prepare spec in
  let obj = objective (costs spec) insts direction in
  List.map (Lp.make direction obj) (set_constraints spec insts base sets)

let wcet_problems spec = direction_problems spec Lp.Maximize
let bcet_problems spec = direction_problems spec Lp.Minimize

let analyze ?(certify = false) spec =
  let insts, base, sets, total, pruned = prepare spec in
  let system = build_system spec insts base sets in
  let extreme direction = solve_extreme ~certify spec insts system direction in
  let wcet, wstats, wcet_cert =
    Obs.span "analysis.wcet" ~args:[ ("root", spec.root) ] (fun () ->
      extreme Lp.Maximize)
  in
  let bcet, bstats, bcet_cert =
    Obs.span "analysis.bcet" ~args:[ ("root", spec.root) ] (fun () ->
      extreme Lp.Minimize)
  in
  { wcet;
    bcet;
    wcet_stats = { wstats with sets_total = total; sets_pruned = pruned };
    bcet_stats = { bstats with sets_total = total; sets_pruned = pruned };
    wcet_cert;
    bcet_cert }

let estimated_bound spec =
  let r = analyze spec in
  (r.bcet.cycles, r.wcet.cycles)

type sensitivity_row = {
  annotation : Annotation.t;
  base_wcet : int;
  tightened_wcet : int;  (** WCET with this loop's [hi] reduced by one *)
}

(* how much each loop bound is worth: re-solve the WCET with hi-1 for one
   annotation at a time (the exact discrete analogue of a shadow price) *)
let wcet_sensitivity spec =
  let base = (analyze spec).wcet.cycles in
  spec.loop_bounds
  |> List.map (fun (ann : Annotation.t) ->
    let tightened_wcet =
      if ann.Annotation.hi <= ann.Annotation.lo then base
      else begin
        let loop_bounds =
          List.map
            (fun (a : Annotation.t) ->
              if a == ann then { a with Annotation.hi = a.Annotation.hi - 1 }
              else a)
            spec.loop_bounds
        in
        match analyze { spec with loop_bounds } with
        | r -> r.wcet.cycles
        | exception Analysis_error _ -> base
      end
    in
    { annotation = ann; base_wcet = base; tightened_wcet })
