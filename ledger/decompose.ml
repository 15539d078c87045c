(* One analysis split into calls to each layer's public function, each
   wrapped in a ledger span named after the layer. The sequence mirrors
   [Analysis.analyze] (presolve on, sequential pool): per constraint set a
   presolve and an ILP on the reduced problem, the first strictly better
   set wins, then the optimal-face witness re-solve and, when asked, the
   certificate. The caller compares the resulting bounds with
   [Analysis.analyze]'s, so a drift between the two sequences fails the
   run instead of skewing the ledger. *)

module P = Ipet_isa.Prog
module Analysis = Ipet.Analysis
module Lp = Ipet_lp.Lp_problem
module L = Ipet_lp.Linexpr
module Ilp = Ipet_lp.Ilp
module Presolve = Ipet_lp.Presolve
module Rat = Ipet_num.Rat
module Certify = Ipet_cert.Certify
module Checker = Ipet_cert.Checker

(* solver work summed over every traced analysis *)
type counts = {
  mutable lp_vars : int;
  mutable lp_constrs : int;
  mutable sets : int;
  mutable presolve_before : int;
  mutable presolve_after : int;
  mutable pivots : int;
  mutable lp_calls : int;
  mutable bnb_nodes : int;
  mutable warm_hits : int;
  mutable warm_misses : int;
}

let counts () =
  { lp_vars = 0; lp_constrs = 0; sets = 0; presolve_before = 0;
    presolve_after = 0; pivots = 0; lp_calls = 0; bnb_nodes = 0;
    warm_hits = 0; warm_misses = 0 }

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let count_metrics c =
  [ ("core.lp_vars", float_of_int c.lp_vars);
    ("core.lp_constrs", float_of_int c.lp_constrs);
    ("core.sets", float_of_int c.sets);
    ("lp.presolve.removed_ratio",
     1. -. ratio c.presolve_after c.presolve_before);
    ("lp.ilp.pivots", float_of_int c.pivots);
    ("lp.ilp.lp_calls", float_of_int c.lp_calls);
    ("lp.ilp.bnb_nodes", float_of_int c.bnb_nodes);
    ("lp.ilp.warm_hit_ratio", ratio c.warm_hits (c.warm_hits + c.warm_misses)) ]

type outcome = {
  bounds : int * int;  (* bcet, wcet *)
  verdicts : Checker.verdict list;  (* wcet then bcet, when certified *)
}

let pool = Ipet_par.Pool.create ~jobs:1

let extreme sp c ~certify problems =
  let better direction a b =
    match direction with
    | Lp.Maximize -> Rat.compare a b > 0
    | Lp.Minimize -> Rat.compare a b < 0
  in
  let best = ref None in
  List.iter
    (fun (problem : Lp.t) ->
      c.lp_vars <- c.lp_vars + Lp.num_variables problem;
      c.lp_constrs <- c.lp_constrs + Lp.num_constraints problem;
      match Spans.span sp "lp.presolve" (fun () -> Presolve.run ~integer:true problem) with
      | Presolve.Proved_infeasible _ -> ()
      | Presolve.Reduced { problem = reduced; postsolve; stats } ->
        c.presolve_before <- c.presolve_before + stats.Presolve.vars_before;
        c.presolve_after <- c.presolve_after + stats.Presolve.vars_after;
        let result =
          Spans.span sp "lp.ilp" (fun () -> Ilp.solve ~presolve:false ~pool reduced)
        in
        let record (s : Ilp.stats) =
          c.pivots <- c.pivots + s.Ilp.pivots;
          c.lp_calls <- c.lp_calls + s.Ilp.lp_calls;
          c.bnb_nodes <- c.bnb_nodes + s.Ilp.nodes;
          c.warm_hits <- c.warm_hits + s.Ilp.warm_hits;
          c.warm_misses <- c.warm_misses + s.Ilp.warm_misses
        in
        (match result with
         | Ilp.Optimal { value; assignment; stats } ->
           record stats;
           let full = Spans.span sp "lp.presolve" (fun () -> postsolve assignment) in
           (match !best with
            | Some (v, _, _) when not (better problem.Lp.direction value v) -> ()
            | Some _ | None -> best := Some (value, full, problem))
         | Ilp.Infeasible stats -> record stats
         | Ilp.Unbounded _ -> failwith "ILP unbounded"))
    problems;
  match !best with
  | None -> failwith "every constraint set is infeasible"
  | Some (value, assignment, problem) ->
    let witness =
      Spans.span sp "lp.witness" (fun () ->
          let face =
            Lp.make problem.Lp.direction problem.Lp.objective
              (problem.Lp.constraints
               @ [ Lp.eq ~origin:"optimal-face" problem.Lp.objective (L.const value) ])
          in
          match Ilp.solve ~presolve:true ~pool face with
          | Ilp.Optimal { assignment; _ } -> assignment
          | Ilp.Infeasible _ | Ilp.Unbounded _ -> assignment)
    in
    let verdict =
      if not certify then []
      else
        match
          Spans.span sp "cert.emit" (fun () ->
              Certify.certify problem ~witness ~bound:value)
        with
        | Error e -> failwith ("certificate production failed: " ^ e)
        | Ok cert -> [ Spans.span sp "cert.check" (fun () -> Checker.check problem cert) ]
    in
    (Rat.to_int value, verdict)

(* [spec_of] builds the analysis spec from the compiled program, exactly as
   the untraced operation does *)
let analyze sp c ~certify ~spec_of source =
  let compiled =
    match Spans.span sp "lang" (fun () -> Ipet_lang.Frontend.compile_string source) with
    | Ok compiled -> compiled
    | Error { Ipet_lang.Frontend.message; line } ->
      failwith (Printf.sprintf "line %d: %s" line message)
  in
  let spec : Analysis.spec = spec_of compiled.Ipet_lang.Compile.prog in
  Spans.span sp "machine" (fun () ->
      Array.iter
        (fun (f : P.func) -> ignore (Analysis.block_costs spec ~func:f.P.name))
        spec.Analysis.prog.P.funcs);
  let wcet_problems, bcet_problems =
    Spans.span sp "core" (fun () ->
        (Analysis.wcet_problems spec, Analysis.bcet_problems spec))
  in
  c.sets <- c.sets + List.length wcet_problems;
  let wcet, wv = extreme sp c ~certify wcet_problems in
  let bcet, bv = extreme sp c ~certify bcet_problems in
  { bounds = (bcet, wcet); verdicts = wv @ bv }
