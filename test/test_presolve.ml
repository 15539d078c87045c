(* Tests for the ILP presolve engine: unit tests for the individual
   reductions, and an equivalence sweep asserting that presolve never
   changes the bounds the analysis computes on the full benchmark suite. *)

open Ipet_num
module L = Ipet_lp.Linexpr
module P = Ipet_lp.Lp_problem
module Pre = Ipet_lp.Presolve
module I = Ipet_lp.Ilp
module Analysis = Ipet.Analysis
module Bspec = Ipet_suite.Bspec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rat_testable = Alcotest.testable Rat.pp Rat.equal

let lp_max objective constraints = P.make P.Maximize objective constraints

let reduced = function
  | Pre.Reduced r -> r
  | Pre.Proved_infeasible { reason; _ } ->
    Alcotest.failf "unexpected infeasible: %s" reason

let ilp_value p ~presolve =
  match I.solve ~presolve p with
  | I.Optimal { value; _ } -> value
  | I.Infeasible _ -> Alcotest.fail "unexpected infeasible"
  | I.Unbounded _ -> Alcotest.fail "unexpected unbounded"

(* --- substitution ------------------------------------------------------- *)

let test_substitution_chain () =
  (* flow-style chain: e = 1, x = e, y = x; only the loop-bounded tail
     survives. max 2x + 3y s.t. y <= 4y' is nonsense; use y <= 4. *)
  let open L.Infix in
  let p =
    lp_max
      ((2 * v "x") + (3 * v "y"))
      [ P.eq (v "e") (int 1);
        P.eq (v "x") (10 * v "e");
        P.eq (v "y") (v "x") ]
  in
  let r = reduced (Pre.run p) in
  check_int "all variables eliminated" 0 (P.num_variables r.Pre.problem);
  check_int "no constraints left" 0 (P.num_constraints r.Pre.problem);
  (* the reduced objective carries the whole answer as its constant *)
  Alcotest.check rat_testable "objective constant" (Rat.of_int 50)
    (L.constant r.Pre.problem.P.objective);
  (* postsolve reconstructs every original variable *)
  let full = r.Pre.postsolve [] in
  let env = Ipet_lp.Simplex.assignment_env full in
  Alcotest.check rat_testable "e" Rat.one (env "e");
  Alcotest.check rat_testable "x" (Rat.of_int 10) (env "x");
  Alcotest.check rat_testable "y" (Rat.of_int 10) (env "y");
  check_bool "reconstruction feasible" true (P.feasible env p)

let test_substitution_keeps_nonnegativity () =
  (* x = y - 3 must not lose x >= 0: without the guard, max -y would pick
     y = 0. The true optimum is y = 3 (x = 0). *)
  let open L.Infix in
  let p =
    P.make P.Minimize (v "y")
      [ P.eq (v "x") (v "y" - int 3) ]
  in
  Alcotest.check rat_testable "guarded minimum" (Rat.of_int 3)
    (ilp_value p ~presolve:true);
  Alcotest.check rat_testable "baseline agrees" (Rat.of_int 3)
    (ilp_value p ~presolve:false)

let test_substitution_skips_fractional_defs () =
  (* 2x = y would define x = y/2 — not integral, so presolve must keep it
     rather than let the reduced problem report fractional solutions *)
  let open L.Infix in
  let p =
    lp_max (v "x")
      [ P.eq (2 * v "x") (v "y"); P.le (v "y") (int 5) ]
  in
  (* optimum: y even, y = 4, x = 2 *)
  Alcotest.check rat_testable "with presolve" (Rat.of_int 2)
    (ilp_value p ~presolve:true);
  Alcotest.check rat_testable "without presolve" (Rat.of_int 2)
    (ilp_value p ~presolve:false)

(* --- bounds ------------------------------------------------------------- *)

let test_bound_tightening () =
  (* singleton rows fold into one bound; the integer bound is floored *)
  let open L.Infix in
  let p =
    lp_max (v "x")
      [ P.le (2 * v "x") (int 7); P.le (v "x") (int 9) ]
  in
  let r = reduced (Pre.run p) in
  (* x <= 7/2 floors to x <= 3 and the weaker x <= 9 is gone *)
  check_int "one bound row" 1 (P.num_constraints r.Pre.problem);
  Alcotest.check rat_testable "solved directly" (Rat.of_int 3)
    (ilp_value p ~presolve:true);
  Alcotest.check rat_testable "baseline agrees" (Rat.of_int 3)
    (ilp_value p ~presolve:false)

let test_forcing_row () =
  (* a zero loop bound: x + y <= 0 pins both counts to zero *)
  let open L.Infix in
  let p =
    lp_max
      ((5 * v "x") + (7 * v "y") + v "z")
      [ P.le (v "x" + v "y") (int 0); P.le (v "z") (int 2) ]
  in
  let r = reduced (Pre.run p) in
  check_bool "x and y eliminated" true (P.num_variables r.Pre.problem <= 1);
  Alcotest.check rat_testable "value" (Rat.of_int 2) (ilp_value p ~presolve:true);
  let full =
    match I.solve p with
    | I.Optimal { assignment; _ } -> assignment
    | _ -> Alcotest.fail "expected optimal"
  in
  let env = Ipet_lp.Simplex.assignment_env full in
  Alcotest.check rat_testable "x forced to 0" Rat.zero (env "x");
  Alcotest.check rat_testable "y forced to 0" Rat.zero (env "y")

(* An infeasibility reason names the row origin or the variable behind
   the conflict, never a column number *)
let check_reason what p ~needle =
  match Pre.run p with
  | Pre.Proved_infeasible { reason; _ } ->
    check_bool
      (Printf.sprintf "%s: %S names %S" what reason needle)
      true
      (Test_lp.contains ~needle reason)
  | Pre.Reduced _ -> Alcotest.failf "%s: expected an infeasibility proof" what

let test_infeasible_bounds () =
  let open L.Infix in
  let p =
    lp_max (v "x")
      [ P.ge ~origin:"floor" (v "x") (int 5); P.le ~origin:"cap" (v "x") (int 3) ]
  in
  check_reason "empty range" p ~needle:"cap leaves x with an empty range";
  check_bool "Ilp agrees" true
    (match I.solve p with I.Infeasible _ -> true | _ -> false)

(* 2x = 3 fixes x = 3/2, and 3 <= 2x <= 3 rounds to the bounds 2 <= x
   <= 1: integer-infeasible, LP-feasible *)
let test_infeasible_integer_fix () =
  let open L.Infix in
  List.iter
    (fun (what, p, needle) ->
      check_reason what p ~needle;
      match Pre.run ~integer:false p with
      | Pre.Reduced _ -> ()
      | Pre.Proved_infeasible _ ->
        Alcotest.failf "%s: the LP relaxation is feasible" what)
    [ ("integer fix",
       lp_max (v "x") [ P.eq ~origin:"half" (2 * v "x") (int 3) ],
       "row half fixes x to the fractional value 3/2");
      ("rounded bounds",
       lp_max (v "x")
         [ P.ge ~origin:"floor" (2 * v "x") (int 3);
           P.le ~origin:"cap" (2 * v "x") (int 3) ],
       "cap leaves x with an empty range") ]

(* x >= 4 conflicts with x <= 2y, y <= 1 through the second row: once
   the first and last rows are bounds, its minimum x - 2y = 4 - 2 is
   positive. The solver agrees *)
let test_infeasible_row () =
  let open L.Infix in
  let p =
    lp_max (v "x")
      [ P.ge ~origin:"floor" (v "x") (int 4);
        P.le ~origin:"link" (v "x" - (2 * v "y")) (int 0);
        P.le ~origin:"cap" (v "y") (int 1) ]
  in
  check_reason "unsatisfiable row" p ~needle:"row cannot be satisfied: link";
  List.iter
    (fun presolve ->
      check_bool
        (Printf.sprintf "solver (presolve %b) proves it infeasible" presolve)
        true
        (match I.solve ~presolve p with
         | I.Infeasible _ -> true
         | I.Optimal _ | I.Unbounded _ -> false))
    [ true; false ]

(* a zero loop bound, x + y <= 0, is a forcing row; x >= 1 leaves it
   unsatisfiable *)
let test_infeasible_forcing () =
  let open L.Infix in
  check_reason "forcing"
    (lp_max (v "x")
       [ P.ge ~origin:"floor" (v "x") (int 1);
         P.le ~origin:"zero bound" (v "x" + v "y") (int 0) ])
    ~needle:"row cannot be satisfied: zero bound"

(* --- one fixpoint, two objectives ---------------------------------------- *)

(* One fixpoint serves both directions even when their objectives have
   different supports, as the first-miss WCET objective's loop-entry edges
   do: [e]'s folded upper bound matters only to the maximization, which
   mentions [e], and [f]'s folded lower bound only to the minimization.
   Each emit re-emits exactly its own objective's bound row, solves to the
   un-presolved optimum, and postsolves to a feasible witness *)
let test_shared_fixpoint () =
  let open L.Infix in
  let constraints =
    [ P.le ~origin:"entry bound" (v "e") (int 3);
      P.ge ~origin:"warm floor" (v "f") (int 2);
      P.le ~origin:"cap" (v "x" + v "y") (int 10);
      P.ge ~origin:"skew" (v "x" - v "y") (int 1);
      P.eq ~origin:"flow" (v "z") (v "x" + v "y") ]
  in
  let fp = Pre.fixpoint (P.Columns.make constraints) in
  let bound_origins = [ "entry bound"; "warm floor" ] in
  List.iter
    (fun (what, direction, objective, own) ->
      let problem = P.make direction objective constraints in
      let emitted = Pre.emit fp direction objective in
      let reduced_problem = (reduced (fst emitted)).Pre.problem in
      Alcotest.(check (list string))
        (what ^ " re-emits exactly its own bound row") [ own ]
        (List.filter
           (fun o -> List.mem o bound_origins)
           (List.map (fun (c : P.constr) -> c.P.origin)
              reduced_problem.P.constraints));
      Alcotest.(check string)
        (what ^ " emit is the one-shot presolve")
        (Format.asprintf "%a" P.pp (reduced (Pre.run problem)).Pre.problem)
        (Format.asprintf "%a" P.pp reduced_problem);
      match I.solve_presolved emitted with
      | I.Optimal { value; assignment; _ } ->
        Alcotest.check rat_testable (what ^ " optimum")
          (ilp_value problem ~presolve:false) value;
        check_bool (what ^ " postsolved witness is feasible") true
          (P.feasible (Ipet_lp.Simplex.assignment_env assignment) problem)
      | I.Infeasible _ | I.Unbounded _ -> Alcotest.failf "%s: not optimal" what)
    [ ("max", P.Maximize, (2 * v "x") + v "y" + (5 * v "e") + v "z", "entry bound");
      ("min", P.Minimize, v "x" + v "y" + v "f" + v "z", "warm floor") ]

(* --- the occurrence index ------------------------------------------------- *)

(* A substitution rewrites only the rows its variable's index entry lists.
   Each case below presolves a small system whose rows the index must
   follow through a pass, then checks the reduced problem against its
   pinned form, the optimum against the un-presolved ILP, and the
   postsolved witness against every original row. *)
let check_reduction what p ~expected =
  Alcotest.(check string) (what ^ ": reduced problem") expected
    (Format.asprintf "%a" P.pp (reduced (Pre.run p)).Pre.problem);
  match I.solve ~presolve:true p with
  | I.Optimal { value; assignment; _ } ->
    Alcotest.check rat_testable (what ^ ": optimum")
      (ilp_value p ~presolve:false) value;
    check_bool (what ^ ": postsolved witness is feasible") true
      (P.feasible (Ipet_lp.Simplex.assignment_env assignment) p)
  | I.Infeasible _ | I.Unbounded _ -> Alcotest.failf "%s: not optimal" what

(* "cap" is rewritten by three substitutions in a row, p := u, q := u + v
   and r := v, all in the first pass *)
let test_index_repeated_rewrites () =
  let open L.Infix in
  check_reduction "repeated rewrites"
    (lp_max
       (v "p" + (2 * v "q") + (3 * v "r"))
       [ P.le ~origin:"cap" (v "p" + v "q" + v "r") (int 12);
         P.eq ~origin:"dp" (v "p") (v "u");
         P.eq ~origin:"dq" (v "q") (v "u" + v "v");
         P.eq ~origin:"dr" (v "r") (v "v") ])
    ~expected:"maximize 3 u + 5 v\nsubject to:\n  2 u + 2 v <= 12   [cap]\n\
               \  (all variables >= 0)"

(* a := b + c cancels b out of "gap", leaving a stale index entry; c :=
   b + d puts b back, so "gap" is listed twice under b when b := e is
   substituted, and is rewritten once *)
let test_index_stale_entries () =
  let open L.Infix in
  check_reduction "stale entries"
    (lp_max
       (v "a" + v "b" + v "c" + v "d" + v "e")
       [ P.le ~origin:"gap" (v "a" - v "b") (int 3);
         P.eq ~origin:"da" (v "a" - v "b" - v "c") (int 0);
         P.eq ~origin:"dc" (v "c" - v "b" - v "d") (int 0);
         P.eq ~origin:"db" (v "b") (v "e") ])
    ~expected:"maximize 3 d + 5 e\nsubject to:\n  d + e <= 3   [gap]\n\
               \  (all variables >= 0)"

(* the eliminations of w (explicit bound w <= 4) and of g (no definition
   is non-negative, so it takes a guard) create a bound row over p, q and
   a guard row over h; p := s and h := k, later in the same pass, must
   rewrite those pending rows. The guard row ends as the bound k <= 5 *)
let test_index_pending_rows () =
  let open L.Infix in
  check_reduction "pending rows"
    (lp_max
       (v "w" + v "g" + (2 * v "s") + v "q" + (2 * v "k"))
       [ P.le ~origin:"w cap" (v "w") (int 4);
         P.eq ~origin:"dw" (v "w") (v "p" + v "q");
         P.eq ~origin:"dg" (v "g" + v "h") (int 5);
         P.eq ~origin:"dp" (v "p") (v "s");
         P.eq ~origin:"dh" (v "h") (v "k") ])
    ~expected:"maximize k + 2 q + 3 s + 5\nsubject to:\n\
               \  q + s <= 4   [w cap]\n  k <= 5   [dg]\n\
               \  (all variables >= 0)"

(* --- objective-only variables --------------------------------------------- *)

(* An objective may price a variable that no constraint mentions. It has
   no column, so the reduced objective and the postsolved assignment must
   carry it past the columns: "a" sorts before every column, "c" between
   the columns "b" and "d", and "e" after both. Presolve eliminates d :=
   b + 1 and folds "floor" into a bound on b *)
let test_objective_only_variables () =
  let open L.Infix in
  let p =
    P.make P.Minimize
      (v "a" + (2 * v "b") + (3 * v "c") + v "d" + (4 * v "e"))
      [ P.ge ~origin:"floor" (v "b") (int 2);
        P.eq ~origin:"flow" (v "d") (v "b" + int 1) ]
  in
  let r = reduced (Pre.run p) in
  List.iter
    (fun (x, c) ->
      Alcotest.check rat_testable
        ("the reduced objective keeps " ^ x)
        (Rat.of_int c)
        (L.coeff r.Pre.problem.P.objective x))
    [ ("a", 1); ("c", 3); ("e", 4) ];
  check_int "variables before" 5 r.Pre.stats.Pre.vars_before;
  check_int "variables after" 4 r.Pre.stats.Pre.vars_after;
  let assignment = Alcotest.(list (pair string rat_testable)) in
  (match I.solve ~presolve:true p, I.solve ~presolve:false p with
   | ( I.Optimal { value; assignment = witness; _ },
       I.Optimal { value = plain_value; assignment = plain_witness; _ } ) ->
     Alcotest.check rat_testable "optimum" plain_value value;
     Alcotest.check assignment "witness" plain_witness witness
   | _ -> Alcotest.fail "not optimal");
  (* nonzero values of the objective-only variables merge into the
     columns' in name order *)
  let q = Rat.of_int in
  Alcotest.check assignment "postsolve merges by name"
    [ ("a", q 5); ("b", q 4); ("c", q 6); ("d", q 5); ("e", q 7) ]
    (r.Pre.postsolve [ ("e", q 7); ("b", q 4); ("a", q 5); ("c", q 6) ])

(* --- equivalence on the benchmark suite --------------------------------- *)

(* Every ILP of every benchmark (both extremes, every surviving conjunctive
   set) must have the same optimum with and without presolve, and the
   postsolved witness must be feasible for the original problem. *)
let test_suite_problem_equivalence () =
  let total = ref 0 in
  let reductions = ref [] in
  List.iter
    (fun (bench : Bspec.t) ->
      let spec = Bspec.spec bench in
      let problems = Analysis.wcet_problems spec @ Analysis.bcet_problems spec in
      List.iter
        (fun p ->
          incr total;
          let plain = I.solve ~presolve:false p in
          let pre = I.solve ~presolve:true p in
          (match (plain, pre) with
           | ( I.Optimal { value = v1; stats = s1; _ },
               I.Optimal { value = v2; assignment = a2; stats = s2 } ) ->
             if not (Rat.equal v1 v2) then
               Alcotest.failf "%s: value %s with presolve, %s without"
                 bench.Bspec.name (Rat.to_string v2) (Rat.to_string v1);
             check_bool
               (bench.Bspec.name ^ ": first LP integrality preserved")
               s1.I.first_lp_integral s2.I.first_lp_integral;
             let env = Ipet_lp.Simplex.assignment_env a2 in
             if not (P.feasible env p) then
               Alcotest.failf "%s: postsolved witness violates the original"
                 bench.Bspec.name;
             (match s2.I.presolve with
              | Some ps ->
                reductions :=
                  (ps.Pre.vars_before, ps.Pre.vars_after) :: !reductions
              | None -> Alcotest.fail "presolve stats missing")
           | I.Infeasible _, I.Infeasible _ -> ()
           | _ ->
             Alcotest.failf "%s: presolve changed the outcome kind"
               bench.Bspec.name))
        problems)
    Ipet_suite.Suite.all;
  check_bool "solved a meaningful number of ILPs" true (!total >= 13);
  (* the paper's flow systems are dominated by eliminable equalities: the
     median reduction must remove at least half the variables *)
  let ratios =
    List.map
      (fun (before, after) ->
        if before = 0 then 0.0
        else float_of_int (before - after) /. float_of_int before)
      !reductions
    |> List.sort compare
  in
  let median = List.nth ratios (List.length ratios / 2) in
  check_bool
    (Printf.sprintf "median variable reduction %.0f%% >= 50%%"
       (100.0 *. median))
    true (median >= 0.5)

(* The end-to-end guarantee: presolve never changes the bound. Both sides
   run with certificates, so each bound is also proved optimal by the
   trusted checker, and each certificate's LP solve starts at the witness
   the ILP returned (no cold fallback). Witness block counts are not
   compared: where an optimum is degenerate the two pipelines may report
   different optimal vertices (dhry and line do). ludcmp is the one real
   program whose ILP branches, and only without presolve (its BCET root LP
   is not integral), so on both machines it runs the branch-and-bound
   child solves on real IPET input, and the first-LP integrality check
   skips it. For the same reason its BCET certificate, which is about the
   un-presolved LP relaxation, proves a safe bound with a gap, from a cold
   solve: the integral witness is not an optimal vertex of that LP. *)
let test_suite_analysis_equivalence () =
  let ludcmp mach = Bspec.spec ~mach (Ipet_suite.Suite.find "ludcmp") in
  (* the first-miss refinement gives the WCET objective loop-entry edge
     terms the BCET objective lacks, so the two directions emit different
     bound rows from one fixpoint *)
  let first_miss =
    List.concat_map
      (fun mach ->
        List.map
          (fun (b : Bspec.t) ->
            ( Printf.sprintf "%s %s first-miss" b.Bspec.name
                (Ipet_machine.Machine.id mach),
              { (Bspec.spec ~mach b) with Analysis.first_miss_refinement = true },
              false ))
          Ipet_suite.Suite.all)
      [ Ipet_machine.Machine.e32; Ipet_machine.Machine.m7 ]
  in
  List.iter
    (fun (name, spec, branches) ->
      let analyze presolve =
        Analysis.analyze ~certify:true { spec with Analysis.presolve }
      in
      let with_pre = analyze true in
      let without = analyze false in
      let check_cert what ~closes side = function
        | None -> Alcotest.failf "%s %s %s: no certificate" name what side
        | Some (c : Analysis.certificate) when not closes ->
          check_bool
            (Printf.sprintf "%s %s %s certificate is valid" name what side)
            true
            (match c.Analysis.verdict with
             | Ipet_cert.Checker.Valid _ -> true
             | Ipet_cert.Checker.Invalid _ -> false)
        | Some (c : Analysis.certificate) ->
          check_bool
            (Printf.sprintf "%s %s %s certificate closes the gap" name what
               side)
            true (Ipet_cert.Checker.gap_closed c.Analysis.verdict);
          check_bool
            (Printf.sprintf "%s %s %s certificate lifted" name what side)
            true (c.Analysis.emit_source = Ipet_cert.Certify.Lifted)
      in
      let check_extreme what ~closes extreme cert =
        check_int
          (Printf.sprintf "%s %s cycles" name what)
          (extreme without).Analysis.cycles (extreme with_pre).Analysis.cycles;
        check_cert what ~closes "presolved" (cert with_pre);
        check_cert what ~closes "un-presolved" (cert without)
      in
      check_extreme "WCET" ~closes:true
        (fun r -> r.Analysis.wcet) (fun r -> r.Analysis.wcet_cert);
      check_extreme "BCET" ~closes:(not branches)
        (fun r -> r.Analysis.bcet) (fun r -> r.Analysis.bcet_cert);
      if branches then begin
        let s = without.Analysis.bcet_stats in
        check_bool
          (Printf.sprintf "%s BCET branches without presolve (%d LP calls, %d sets)"
             name s.Analysis.lp_calls s.Analysis.sets_solved)
          true (s.Analysis.lp_calls > s.Analysis.sets_solved)
      end
      else
        check_bool
          (name ^ " first-LP integrality")
          (without.Analysis.wcet_stats.Analysis.all_first_lp_integral
           && without.Analysis.bcet_stats.Analysis.all_first_lp_integral)
          (with_pre.Analysis.wcet_stats.Analysis.all_first_lp_integral
           && with_pre.Analysis.bcet_stats.Analysis.all_first_lp_integral))
    (List.map (fun (b : Bspec.t) -> (b.Bspec.name, Bspec.spec b, false))
       Ipet_suite.Suite.all
     @ first_miss
     @ [ ("ludcmp e32", ludcmp Ipet_machine.Machine.e32, true);
         ("ludcmp m7", ludcmp Ipet_machine.Machine.m7, true) ])

(* piksrt's own constraints plus 8 copies of [x1 = 1 | x2 >= 0]: 2^8
   sets, of which only the one that takes [x2 >= 0] everywhere is feasible
   ([x1] is the outer loop's header, which runs more than once). Presolve
   proves the other 255 infeasible, so each direction makes a single LP
   call, and both certificates lift *)
let test_disjunction_pruning () =
  let b = Ipet_suite.Suite.find "piksrt" in
  let copies =
    List.init 8 (fun _ ->
        Ipet.Constraint_parser.parse_constraint ~func:"piksrt"
          "x1 = 1 | x2 >= 0")
  in
  let spec =
    Analysis.spec ~loop_bounds:b.Bspec.loop_bounds
      ~functional:(b.Bspec.functional @ copies) ~root:b.Bspec.root
      (Bspec.compile b).Ipet_lang.Compile.prog
  in
  let r = Analysis.analyze ~certify:true spec in
  check_int "BCET" 264 r.Analysis.bcet.Analysis.cycles;
  check_int "WCET" 3611 r.Analysis.wcet.Analysis.cycles;
  List.iter
    (fun (what, (s : Analysis.solver_stats), cert) ->
      check_int (what ^ ": sets") 256 s.Analysis.sets_total;
      check_int (what ^ ": sets solved") 256 s.Analysis.sets_solved;
      check_int (what ^ ": sets infeasible") 255 s.Analysis.sets_infeasible;
      check_int (what ^ ": LP calls") 1 s.Analysis.lp_calls;
      let c = Option.get cert in
      check_bool (what ^ ": certificate lifted") true
        (c.Analysis.emit_source = Ipet_cert.Certify.Lifted);
      check_bool (what ^ ": certificate closes the gap") true
        (Ipet_cert.Checker.gap_closed c.Analysis.verdict))
    [ ("WCET", r.Analysis.wcet_stats, r.Analysis.wcet_cert);
      ("BCET", r.Analysis.bcet_stats, r.Analysis.bcet_cert) ]

(* the summary's solver line covers every ILP of both extremes: without
   presolve ludcmp's BCET ILP branches (3 LP calls, a fractional first
   relaxation) while its WCET ILP is solved by one integral relaxation *)
let test_summary_counts_both_extremes () =
  List.iter
    (fun mach ->
      let spec =
        { (Bspec.spec ~mach (Ipet_suite.Suite.find "ludcmp")) with
          Analysis.presolve = false }
      in
      let r = Analysis.analyze spec in
      let w = r.Analysis.wcet_stats and b = r.Analysis.bcet_stats in
      let line =
        Printf.sprintf "LP calls: %d; first relaxation integral in every ILP: %b"
          (w.Analysis.lp_calls + b.Analysis.lp_calls)
          (w.Analysis.all_first_lp_integral && b.Analysis.all_first_lp_integral)
      in
      let name = "ludcmp on " ^ Ipet_machine.Machine.id mach in
      check_bool (name ^ ": the BCET side branches") false
        b.Analysis.all_first_lp_integral;
      check_bool (name ^ ": the summary reads " ^ line) true
        (List.mem line
           (String.split_on_char '\n' (Ipet.Report.bound_summary r))))
    [ Ipet_machine.Machine.e32; Ipet_machine.Machine.m7 ]

let suite =
  [ ("substitution chain", `Quick, test_substitution_chain);
    ("substitution keeps x >= 0", `Quick, test_substitution_keeps_nonnegativity);
    ("substitution skips fractional defs", `Quick,
     test_substitution_skips_fractional_defs);
    ("bound tightening", `Quick, test_bound_tightening);
    ("forcing row", `Quick, test_forcing_row);
    ("infeasible bounds", `Quick, test_infeasible_bounds);
    ("integer-infeasible fix", `Quick, test_infeasible_integer_fix);
    ("unsatisfiable-row infeasibility", `Quick, test_infeasible_row);
    ("forcing-row infeasibility", `Quick, test_infeasible_forcing);
    ("one fixpoint, two objectives", `Quick, test_shared_fixpoint);
    ("objective-only variables", `Quick, test_objective_only_variables);
    ("suite ILP equivalence", `Slow, test_suite_problem_equivalence);
    ("suite analysis equivalence", `Slow, test_suite_analysis_equivalence);
    ("summary counts both extremes", `Quick, test_summary_counts_both_extremes);
    ("disjunction pruning: 255 of 256 sets proved infeasible", `Quick,
     test_disjunction_pruning);
    ("index: a row rewritten by several substitutions", `Quick,
     test_index_repeated_rewrites);
    ("index: stale and duplicate entries", `Quick, test_index_stale_entries);
    ("index: rows created earlier in the pass", `Quick,
     test_index_pending_rows) ]
