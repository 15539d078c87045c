module Lang = Ipet_lang
module Isa = Ipet_isa
module P = Isa.Prog
module I = Isa.Instr
module V = Isa.Value
module Icache = Ipet_machine.Icache
module Machine = Ipet_machine.Machine
module Cost = Ipet_machine.Cost
module Interp = Ipet_sim.Interp
module Analysis = Ipet.Analysis
module Annotation = Ipet.Annotation
module Autobound = Ipet.Autobound
module Structural = Ipet.Structural
module Flowvar = Ipet.Flowvar
module Lp = Ipet_lp.Lp_problem
module Linexpr = Ipet_lp.Linexpr
module Rat = Ipet_num.Rat

type failure_kind =
  | Frontend_reject
  | Analysis_reject
  | Sim_crash
  | Bound_violation
  | Block_cost_violation
  | Objective_violation
  | Constraint_violation
  | Optimizer_divergence
  | Presolve_divergence
  | Certificate_reject
  | Certificate_cold
  | Unexpected_exception

let kind_name = function
  | Frontend_reject -> "frontend-reject"
  | Analysis_reject -> "analysis-reject"
  | Sim_crash -> "sim-crash"
  | Bound_violation -> "bound-violation"
  | Block_cost_violation -> "block-cost-violation"
  | Objective_violation -> "objective-violation"
  | Constraint_violation -> "constraint-violation"
  | Optimizer_divergence -> "optimizer-divergence"
  | Presolve_divergence -> "presolve-divergence"
  | Certificate_reject -> "certificate-reject"
  | Certificate_cold -> "certificate-cold"
  | Unexpected_exception -> "unexpected-exception"

type failure = { kind : failure_kind; detail : string }

type stats = { bcet : int; wcet : int; cycles : int; instructions : int }

type verdict = Pass of stats | Fail of failure

exception Reject of failure

let fail kind fmt = Printf.ksprintf (fun detail -> raise (Reject { kind; detail })) fmt

(* --- frontend ------------------------------------------------------------ *)

let parse source =
  try Lang.Frontend.parse_and_check source with
  | Lang.Lexer.Error (m, l) -> fail Frontend_reject "lexer: line %d: %s" l m
  | Lang.Parser.Error (m, l) -> fail Frontend_reject "parser: line %d: %s" l m
  | Lang.Typecheck.Error (m, l) -> fail Frontend_reject "typecheck: line %d: %s" l m

let compile ~optimize source =
  match Lang.Frontend.compile_string ~optimize source with
  | Ok c -> c
  | Error { Lang.Frontend.message; line } ->
    fail Frontend_reject "compile: line %d: %s" line message

(* --- measured execution counts as an ILP assignment ---------------------- *)

(* every flow variable of every instance, valued from the simulator's
   context-qualified counters; names match Structural/Annotation exactly
   because both go through [Flowvar.name] *)
let measured_counts machine instances =
  let paths : (Flowvar.ctx, Interp.site list) Hashtbl.t = Hashtbl.create 16 in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let add fv n = Hashtbl.replace counts (Flowvar.name fv) n in
  List.iter
    (fun (inst : Structural.instance) ->
      let ctx = inst.Structural.ctx in
      let func = inst.Structural.func in
      let fname = func.P.name in
      let path =
        match Hashtbl.find_opt paths ctx with
        | Some p -> p
        | None -> []  (* instances are root-first; the root's path is empty *)
      in
      List.iter
        (fun (site, _callee, callee_ctx) ->
          Hashtbl.replace paths callee_ctx
            (path @ [ (fname, site.Ipet.Callsite.block, site.Ipet.Callsite.occurrence) ]))
        inst.Structural.sites;
      add
        (Flowvar.Entry { ctx; func = fname })
        (Interp.ctx_entry_count machine ~path ~func:fname);
      Array.iter
        (fun (b : P.block) ->
          let bcount =
            Interp.ctx_block_count machine ~path ~func:fname ~block:b.P.id
          in
          add (Flowvar.Block { ctx; func = fname; block = b.P.id }) bcount;
          let edge dst =
            add
              (Flowvar.Edge { ctx; func = fname; src = b.P.id; dst })
              (Interp.ctx_edge_count machine ~path ~func:fname ~src:b.P.id ~dst)
          in
          (match b.P.term with
           | I.Jump t -> edge t
           | I.Branch (_, t1, t2) ->
             edge t1;
             if t2 <> t1 then edge t2
           | I.Return _ ->
             (* a return-terminated block always leaves by its exit edge *)
             add (Flowvar.Exit { ctx; func = fname; block = b.P.id }) bcount);
          List.iteri
            (fun occurrence _callee ->
              add
                (Flowvar.Fedge { ctx; func = fname; block = b.P.id; occurrence })
                (Interp.ctx_call_count machine ~path ~caller:fname ~block:b.P.id
                   ~occurrence))
            (P.calls_of_block b))
        func.P.blocks)
    instances;
  fun name ->
    match Hashtbl.find_opt counts name with
    | Some n -> Rat.of_int n
    | None -> Rat.zero

(* --- observable state comparison ----------------------------------------- *)

let compare_observables ~(prog : P.t) m_ref m_opt ret_ref ret_opt =
  let pp_ret = function
    | None -> "void"
    | Some v -> Format.asprintf "%a" V.pp v
  in
  if not (Option.equal V.equal ret_ref ret_opt) then
    fail Optimizer_divergence "return value: unoptimized %s, optimized %s"
      (pp_ret ret_ref) (pp_ret ret_opt);
  List.iter
    (fun (g : P.global) ->
      for i = 0 to g.P.size_words - 1 do
        let a = Interp.read_global m_ref g.P.gname i in
        let b = Interp.read_global m_opt g.P.gname i in
        if not (V.equal a b) then
          fail Optimizer_divergence "global %s[%d]: unoptimized %a, optimized %a"
            g.P.gname i
            (fun () v -> Format.asprintf "%a" V.pp v) a
            (fun () v -> Format.asprintf "%a" V.pp v) b
      done)
    prog.P.globals

(* --- the oracle ---------------------------------------------------------- *)

let certificate_finding what (c : Analysis.certificate option) =
  match c with
  | None ->
    Some { kind = Certificate_reject;
           detail = what ^ ": no certificate was produced" }
  | Some { Analysis.verdict = Ipet_cert.Checker.Invalid reasons; _ } ->
    Some { kind = Certificate_reject;
           detail =
             Printf.sprintf "%s certificate rejected: %s" what
               (String.concat "; " reasons) }
  | Some { Analysis.emit_source = Ipet_cert.Certify.Cold; verdict; cert; _ } ->
    Some { kind = Certificate_cold;
           detail =
             (if Ipet_cert.Checker.gap_closed verdict then
                what
                ^ " certificate closes the gap but was re-solved cold: the \
                   root relaxation's prices did not lift through presolve"
              else
                Format.asprintf
                  "%s certificate was re-solved cold and is %a: the root \
                   relaxation's prices did not prove the bound"
                  what (Ipet_cert.Checker.pp_verdict cert) verdict) }
  | Some { Analysis.emit_source = Ipet_cert.Certify.Lifted; _ } -> None

let block_cost_finding ~costs machine =
  let self = Hashtbl.of_seq (List.to_seq (Interp.block_cycles machine)) in
  List.find_map
    (fun ((func, block), n) ->
      let cycles =
        Option.value ~default:0 (Hashtbl.find_opt self (func, block))
      in
      let b = (costs ~func).(block) in
      if cycles >= n * b.Cost.best && cycles <= n * b.Cost.worst then None
      else
        Some
          { kind = Block_cost_violation;
            detail =
              Printf.sprintf
                "%s B%d: %d executions took %d cycles, outside %d x [%d, %d]: \
                 the cost model or the machine table mis-costs this block"
                func block n cycles n b.Cost.best b.Cost.worst })
    (Interp.block_counts machine)

let objective_finding ~bcet ~wcet ~wcet_problems ~bcet_problems counts =
  let check what bound problems outside =
    List.find_map
      (fun (p : Lp.t) ->
        let score = Linexpr.eval counts p.Lp.objective in
        if outside (Rat.compare score (Rat.of_int bound)) && Lp.feasible counts p
        then
          Some
            { kind = Objective_violation;
              detail =
                Printf.sprintf
                  "the measured counts satisfy every constraint and score %s \
                   under the %s objective, beyond the %s %d: presolve, the \
                   simplex or branch-and-bound missed an optimum"
                  (Rat.to_string score) what what bound }
        else None)
      problems
  in
  match check "wcet" wcet wcet_problems (fun c -> c > 0) with
  | Some f -> Some f
  | None -> check "bcet" bcet bcet_problems (fun c -> c < 0)

let run mach cache source =
  let ast, _env = parse source in
  let compiled = compile ~optimize:false source in
  let bounds = Autobound.infer ast in
  let spec =
    Analysis.spec ~mach ~cache ~loop_bounds:bounds ~root:"main"
      compiled.Lang.Compile.prog
  in
  (* the certifying run: every bound comes with an exact duality
     certificate, validated by the trusted checker — a reject here means
     the solver produced a value it cannot prove *)
  let result =
    try Analysis.analyze ~certify:true spec with
    | Analysis.Analysis_error m -> fail Analysis_reject "%s" m
    | Invalid_argument m -> fail Analysis_reject "%s" m
    | Annotation.Bad_annotation m -> fail Analysis_reject "annotation: %s" m
  in
  let bcet, wcet =
    (result.Analysis.bcet.Analysis.cycles, result.Analysis.wcet.Analysis.cycles)
  in
  Option.iter (fun f -> raise (Reject f))
    (certificate_finding "wcet" result.Analysis.wcet_cert);
  Option.iter (fun f -> raise (Reject f))
    (certificate_finding "bcet" result.Analysis.bcet_cert);
  (* presolve is required to be semantics-preserving: same bound either way *)
  let bcet_np, wcet_np =
    Analysis.estimated_bound { spec with Analysis.presolve = false }
  in
  if (bcet_np, wcet_np) <> (bcet, wcet) then
    fail Presolve_divergence
      "presolve on: [%d, %d]; presolve off: [%d, %d]" bcet wcet bcet_np wcet_np;
  (* measured run: fresh machine, cold cache — the configuration the WCET
     analysis models *)
  let machine =
    Interp.create ~mach ~cache compiled.Lang.Compile.prog
      ~init:compiled.Lang.Compile.init_data
  in
  let ret =
    try Interp.call machine "main" [] with
    | Interp.Runtime_error m -> fail Sim_crash "runtime error: %s" m
    | Interp.Out_of_fuel -> fail Sim_crash "out of fuel"
  in
  (* the cost layer first: every block's own cycles within its count times
     its bounds, so a whole-run violation below is the path analysis' *)
  Option.iter (fun f -> raise (Reject f))
    (block_cost_finding ~costs:(Analysis.block_costs spec) machine);
  (* then the solver chain: a feasible assignment, the measured counts,
     must score within the optimum of each objective *)
  let instances, system = Analysis.program_system spec in
  let counts = measured_counts machine instances in
  Option.iter (fun f -> raise (Reject f))
    (objective_finding ~bcet ~wcet
       ~wcet_problems:(Analysis.system_problems system Lp.Maximize)
       ~bcet_problems:(Analysis.system_problems system Lp.Minimize)
       counts);
  let cycles = Interp.cycles machine in
  if cycles < bcet || cycles > wcet then
    fail Bound_violation "simulated %d cycles outside estimated bound [%d, %d]"
      cycles bcet wcet;
  (* Section IV's first-miss refinement only tightens the WCET objective,
     so it must still cover the cold run under the same geometry *)
  let _, wcet_fm =
    Analysis.estimated_bound { spec with Analysis.first_miss_refinement = true }
  in
  if cycles > wcet_fm then
    fail Bound_violation "simulated %d cycles above the first-miss WCET %d"
      cycles wcet_fm;
  (* the measured block/edge counts must satisfy every constraint the ILP
     was built from — structural flow equations and loop bounds alike *)
  let check_constr (c : Lp.constr) =
    if not (Lp.satisfies counts c) then
      fail Constraint_violation "measured counts violate %s: %s" c.Lp.origin
        (Format.asprintf "%a" Lp.pp_constr c)
  in
  List.iter check_constr (Analysis.structural_constraints spec);
  let loop_constrs, _unbounded =
    Annotation.constraints compiled.Lang.Compile.prog instances bounds
  in
  List.iter check_constr loop_constrs;
  (* the optimizer must preserve observable behaviour: same return value,
     same final global memory *)
  let opt = compile ~optimize:true source in
  let machine_opt =
    Interp.create ~mach ~cache opt.Lang.Compile.prog
      ~init:opt.Lang.Compile.init_data
  in
  let ret_opt =
    try Interp.call machine_opt "main" [] with
    | Interp.Runtime_error m -> fail Optimizer_divergence "optimized run: %s" m
    | Interp.Out_of_fuel -> fail Optimizer_divergence "optimized run: out of fuel"
  in
  compare_observables ~prog:compiled.Lang.Compile.prog machine machine_opt ret
    ret_opt;
  Pass { bcet; wcet; cycles; instructions = Interp.instructions machine }

let check ?(mach = Machine.e32) ?cache source =
  let cache = match cache with Some c -> c | None -> mach.Machine.fetch in
  match run mach cache source with
  | verdict -> verdict
  | exception Reject f -> Fail f
  | exception e ->
    Fail
      { kind = Unexpected_exception;
        detail = Printexc.to_string e }
