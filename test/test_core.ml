(* Tests of the IPET core: structural constraints, functionality
   constraints, loop bounds, and full analyses — including the paper's
   check_data example (Fig. 5) end to end. *)

module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module P = Ipet_isa.Prog
module V = Ipet_isa.Value
module Interp = Ipet_sim.Interp
module Lp = Ipet_lp.Lp_problem
module Simplex = Ipet_lp.Simplex
module Rat = Ipet_num.Rat
module Flowvar = Ipet.Flowvar
module Structural = Ipet.Structural
module Functional = Ipet.Functional
module Annotation = Ipet.Annotation
module Analysis = Ipet.Analysis
module Cost = Ipet_machine.Cost

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src = Frontend.compile_string_exn src

(* Build an exact environment for structural constraints from a simulation,
   using the interpreter's context-qualified counters: each per-call-path
   instance variable maps to the count observed on exactly that path. *)
let env_of_sim m _root =
  (* "caller.B3.1" -> (caller, 3, 1) *)
  let parse_site s =
    match String.split_on_char '.' s with
    | [ caller; blk; occ ] when String.length blk > 1 && blk.[0] = 'B' ->
      (caller, int_of_string (String.sub blk 1 (String.length blk - 1)),
       int_of_string occ)
    | _ -> failwith ("bad site label " ^ s)
  in
  fun name ->
    let base, path =
      match String.index_opt name '@' with
      | Some i ->
        let ctx = String.sub name (i + 1) (String.length name - i - 1) in
        (String.sub name 0 i, List.map parse_site (String.split_on_char '/' ctx))
      | None -> (name, [])
    in
    match String.split_on_char ':' base with
    | [ "x"; func; block ] ->
      Rat.of_int (Interp.ctx_block_count m ~path ~func ~block:(int_of_string block))
    | [ "d"; func; "in" ] ->
      Rat.of_int (Interp.ctx_entry_count m ~path ~func)
    | [ "d"; func; "out"; block ] ->
      (* exit edge of a return block = its execution count *)
      Rat.of_int (Interp.ctx_block_count m ~path ~func ~block:(int_of_string block))
    | [ "d"; func; src; dst ] ->
      Rat.of_int
        (Interp.ctx_edge_count m ~path ~func ~src:(int_of_string src)
           ~dst:(int_of_string dst))
    | [ "f"; func; block; occ ] ->
      Rat.of_int
        (Interp.ctx_call_count m ~path ~caller:func ~block:(int_of_string block)
           ~occurrence:(int_of_string occ))
    | _ -> Rat.zero

let simulate src root args =
  let compiled = compile src in
  let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
  ignore (Interp.call m root (List.map (fun i -> V.Vint i) args));
  m

(* --- structural constraints -------------------------------------------- *)

let assert_structural_satisfied src root args =
  let m = simulate src root args in
  let prog = Interp.program m in
  let insts = Structural.instances prog ~root in
  let constraints = Structural.constraints prog insts in
  let env = env_of_sim m root in
  List.iter
    (fun c ->
      if not (Lp.satisfies env c) then
        Alcotest.fail
          (Format.asprintf "violated: %a" Lp.pp_constr c))
    constraints

let test_structural_if_else () =
  assert_structural_satisfied
    "int f(int p) { int q; if (p) q = 1; else q = 2; return q; }" "f" [ 1 ];
  assert_structural_satisfied
    "int f(int p) { int q; if (p) q = 1; else q = 2; return q; }" "f" [ 0 ]

let test_structural_while () =
  assert_structural_satisfied
    "int g(int p) { int q; q = p; while (q < 10) q = q + 1; return q; }" "g" [ 0 ];
  assert_structural_satisfied
    "int g(int p) { int q; q = p; while (q < 10) q = q + 1; return q; }" "g" [ 42 ]

let test_structural_calls () =
  let src = {|
    int store_cnt;
    void store(int i) { store_cnt = store_cnt + i; }
    void main_task() {
      int i; int n;
      i = 10;
      store(i);
      n = 2 * i;
      store(n);
    }
  |} in
  assert_structural_satisfied src "main_task" []

let test_structural_fig2_shape () =
  (* the paper's Fig. 2: if-then-else gives x1 = d1 = d2 + d3 etc. *)
  let compiled = compile "int f(int p) { int q; if (p) q = 1; else q = 2; return q; }" in
  let insts = Structural.instances compiled.Compile.prog ~root:"f" in
  let cs = Structural.constraints compiled.Compile.prog insts in
  (* 4 blocks -> 8 flow equations + root entry pin *)
  check_int "constraint count" 9 (List.length cs)

let prop_structural_random =
  (* random structured programs: simulation counts satisfy every structural
     constraint for random arguments *)
  QCheck.Test.make ~name:"structural constraints hold on random programs"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_range (-4) 12))
    (fun (seed, arg) ->
      let src = Test_cfg.random_program_src seed in
      let m = simulate src "f" [ arg ] in
      let prog = Interp.program m in
      let insts = Structural.instances prog ~root:"f" in
      let constraints = Structural.constraints prog insts in
      let env = env_of_sim m "f" in
      List.for_all (Lp.satisfies env) constraints)

(* --- functionality constraints ------------------------------------------ *)

let test_dnf_counts () =
  let open Functional in
  let a = x ~func:"f" 1 =. const 0 in
  let b = x ~func:"f" 2 =. const 0 in
  let c = x ~func:"f" 3 =. const 0 in
  (* three binary disjunctions expand to 8 sets, like dhry in Table I *)
  let sets = dnf [ a ||. b; b ||. c; a ||. c ] in
  check_int "2^3 sets" 8 (List.length sets);
  (* a single conjunction stays a single set *)
  check_int "conjunction" 1 (List.length (dnf [ a &&. b; c ]))

let test_null_pruning () =
  let open Functional in
  (* (x1=0 & x1=1) is null; (x1=0 & x2=1) is not *)
  let x1 = x ~func:"f" 1 and x2 = x ~func:"f" 2 in
  let c = (x1 =. const 0 ||. (x1 =. const 1)) &&. (x1 =. const 0 ||. (x2 =. const 1)) in
  let sets = dnf [ c ] in
  check_int "4 sets before pruning" 4 (List.length sets);
  let survivors, pruned = prune_null_sets sets in
  (* x1=0&x1=0 ok; x1=0&x2=1 ok; x1=1&x1=0 null; x1=1&x2=1 ok *)
  check_int "pruned" 1 pruned;
  check_int "survivors" 3 (List.length survivors)

let test_null_pruning_negative_count () =
  let open Functional in
  (* execution counts are non-negative: x <= -1 is null *)
  let survivors, pruned = prune_null_sets (dnf [ x ~func:"f" 1 <=. const (-1) ]) in
  check_int "pruned" 1 pruned;
  check_int "none survive" 0 (List.length survivors)

(* --- check_data: the paper's running example ---------------------------- *)

(* Line numbers matter: the loop header (while) is on line 8, the negative
   branch on line 10, the increment branch on line 13, return 0 on line 18,
   return 1 on line 20. *)
let check_data_src = {|
int data[10];

int check_data() {
  int i; int morecheck; int wrongone;
  morecheck = 1;
  i = 0;
  wrongone = 0 - 1;
  while (morecheck) {
    if (data[i] < 0) {
      wrongone = i;
      morecheck = 0;
    } else {
      i = i + 1;
      if (i >= 10)
        morecheck = 0;
    }
  }
  if (wrongone >= 0)
    return 0;
  else
    return 1;
}
|}

let check_data_spec ?(functional = []) prog =
  Analysis.spec prog ~root:"check_data"
    ~loop_bounds:[ Annotation.loop ~func:"check_data" ~line:9 ~lo:1 ~hi:10 ]
    ~functional

let test_check_data_bounds_enclose_simulation () =
  let compiled = compile check_data_src in
  let result = Analysis.analyze (check_data_spec compiled.Compile.prog) in
  let wcet = result.Analysis.wcet.Analysis.cycles in
  let bcet = result.Analysis.bcet.Analysis.cycles in
  check_bool "bcet <= wcet" true (bcet <= wcet);
  (* simulate a batch of data sets; every run must fall inside the bound *)
  let datasets =
    [ Array.make 10 1;                          (* worst: full scan *)
      Array.init 10 (fun i -> if i = 0 then -1 else 1);  (* best: stop at once *)
      Array.init 10 (fun i -> if i = 5 then -3 else i);
      Array.init 10 (fun i -> i - 9) ]
  in
  List.iter
    (fun data ->
      let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
      Array.iteri (fun i v -> Interp.write_global m "data" i (V.Vint v)) data;
      Interp.flush_cache m;
      ignore (Interp.call m "check_data" []);
      let t = Interp.cycles m in
      check_bool (Printf.sprintf "run (%d cycles) within [%d, %d]" t bcet wcet)
        true (bcet <= t && t <= wcet))
    datasets

let check_data_paper_constraints =
  (* the paper's constraints (16) and (17), expressed on source lines *)
  let open Functional in
  let neg_block = x_at ~func:"check_data" ~line:11 in
  let stop_block = x_at ~func:"check_data" ~line:16 in
  let exclusive =
    (neg_block =. const 0 &&. (stop_block =. const 1))
    ||. (neg_block =. const 1 &&. (stop_block =. const 0))
  in
  let same = neg_block =. x_at ~func:"check_data" ~line:20 in
  [ exclusive; same ]

let test_check_data_wcet_equals_calculated () =
  (* Experiment 1's methodology: calculated bound = simulated counts times
     per-block worst costs, over the hand-identified extreme data sets.
     With the paper's functionality constraints the path analysis is exact
     for check_data, so estimated = calculated (pessimism [0.00, 0.00]). *)
  let compiled = compile check_data_src in
  let prog = compiled.Compile.prog in
  let spec = check_data_spec ~functional:check_data_paper_constraints prog in
  let result = Analysis.analyze spec in
  let costs = Analysis.block_costs spec ~func:"check_data" in
  let calculated_for data select =
    let m = Interp.create prog ~init:compiled.Compile.init_data in
    Array.iteri (fun i v -> Interp.write_global m "data" i (V.Vint v)) data;
    ignore (Interp.call m "check_data" []);
    List.fold_left
      (fun acc ((func, block), count) ->
        if func = "check_data" then acc + (count * select costs.(block)) else acc)
      0 (Interp.block_counts m)
  in
  (* candidate worst data sets, per the paper's "careful study": all valid
     (10 else-iterations), or negative in the last slot (9 else + 1 then) *)
  let all_ok = Array.make 10 1 in
  let neg_last = Array.init 10 (fun i -> if i = 9 then -1 else 1) in
  let calculated_worst =
    max
      (calculated_for all_ok (fun b -> b.Cost.worst))
      (calculated_for neg_last (fun b -> b.Cost.worst))
  in
  check_int "estimated WCET = calculated WCET" calculated_worst
    result.Analysis.wcet.Analysis.cycles;
  (* best case: negative in the first slot, a single iteration *)
  let neg_first = Array.init 10 (fun i -> if i = 0 then -1 else 1) in
  let calculated_best = calculated_for neg_first (fun b -> b.Cost.best) in
  check_int "estimated BCET = calculated BCET" calculated_best
    result.Analysis.bcet.Analysis.cycles

let test_check_data_functionality_tightens () =
  let compiled = compile check_data_src in
  let prog = compiled.Compile.prog in
  let plain = Analysis.analyze (check_data_spec prog) in
  (* the paper's constraint (16): the 'found negative' block (line 11) and
     the 'i hits DATASIZE' block (line 15... the inner if-true block) are
     mutually exclusive, each executed at most once *)
  let open Functional in
  let neg_block = x_at ~func:"check_data" ~line:11 in
  let stop_block = x_at ~func:"check_data" ~line:16 in
  let exclusive =
    (neg_block =. const 0 &&. (stop_block =. const 1))
    ||. (neg_block =. const 1 &&. (stop_block =. const 0))
  in
  (* the paper's constraint (17): line 11 runs iff return 0 runs *)
  let same = neg_block =. x_at ~func:"check_data" ~line:20 in
  let tightened =
    Analysis.analyze (check_data_spec ~functional:[ exclusive; same ] prog)
  in
  check_bool "tightened WCET <= plain WCET" true
    (tightened.Analysis.wcet.Analysis.cycles <= plain.Analysis.wcet.Analysis.cycles);
  check_bool "tightened BCET >= plain BCET" true
    (tightened.Analysis.bcet.Analysis.cycles >= plain.Analysis.bcet.Analysis.cycles);
  (* two disjuncts -> two constraint sets, none pruned *)
  check_int "two sets" 2 tightened.Analysis.wcet_stats.Analysis.sets_total;
  check_bool "first LP integral everywhere (paper's Section VI observation)"
    true tightened.Analysis.wcet_stats.Analysis.all_first_lp_integral

let test_missing_loop_bound_detected () =
  let compiled = compile check_data_src in
  check_bool "raises" true
    (try
       ignore (Analysis.analyze (Analysis.spec compiled.Compile.prog ~root:"check_data"));
       false
     with Analysis.Analysis_error msg ->
       (* the message should name the function *)
       String.length msg > 0)

(* piksrt with its inner loop bounded by [hi] and no functionality
   constraints, as `bench export` writes it *)
let piksrt_bounded hi =
  let b = Ipet_suite.Suite.find "piksrt" in
  let prog = (compile b.Ipet_suite.Bspec.source).Compile.prog in
  Analysis.spec prog ~root:"piksrt"
    ~loop_bounds:
      [ Annotation.loop ~func:"piksrt" ~line:5 ~lo:9 ~hi:9;
        Annotation.loop ~func:"piksrt" ~line:8 ~lo:0 ~hi ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* counts and cycles beyond int63 are analysis errors naming what
   overflowed: the first bound overflows a block count, the second only
   the WCET in cycles *)
let test_int63_overflow () =
  let expect hi needle =
    match Analysis.analyze (piksrt_bounded hi) with
    | _ -> Alcotest.failf "bound %d: no analysis error" hi
    | exception Analysis.Analysis_error msg ->
      check_bool (Printf.sprintf "bound %d: %s" hi msg) true
        (contains msg needle)
  in
  expect 4611686018427387903 "the count of piksrt block";
  expect 10_000_000_000_000_000 "the WCET in cycles";
  check_bool "a bound of 10^15 still fits" true
    ((Analysis.analyze (piksrt_bounded 1_000_000_000_000_000))
       .Analysis.wcet.Analysis.cycles > 0)

(* --- caller/callee constraints (Fig. 6) --------------------------------- *)

let fig6_src = {|
int data[10];
int cleared;

int check_data() {
  int i; int morecheck; int wrongone;
  morecheck = 1;
  i = 0;
  wrongone = 0 - 1;
  while (morecheck) {
    if (data[i] < 0) {
      wrongone = i;
      morecheck = 0;
    } else {
      i = i + 1;
      if (i >= 10)
        morecheck = 0;
    }
  }
  if (wrongone >= 0)
    return 0;
  else
    return 1;
}

void clear_data() {
  int i;
  for (i = 0; i < 10; i = i + 1)
    data[i] = 0;
  cleared = 1;
}

void task() {
  int status;
  status = check_data();
  if (!status)
    clear_data();
}
|}

let test_fig6_scoped_constraint () =
  let compiled = compile fig6_src in
  let prog = compiled.Compile.prog in
  let loop_bounds =
    [ Annotation.loop ~func:"check_data" ~line:10 ~lo:1 ~hi:10;
      Annotation.loop ~func:"clear_data" ~line:28 ~lo:10 ~hi:10 ]
  in
  let plain = Analysis.analyze (Analysis.spec prog ~root:"task" ~loop_bounds) in
  (* Fig. 6 / constraint (18): clear_data runs iff check_data returned 0,
     i.e. x12 = x8.f1 - the 'return 0' block of the check_data instance
     called from task. *)
  let insts = Structural.instances prog ~root:"task" in
  check_int "three instances" 3 (List.length insts);
  let task_f = P.find_func prog "task" in
  (* find the call site of check_data in task *)
  let call_site =
    let found = ref None in
    Array.iter
      (fun (b : P.block) ->
        List.iteri
          (fun occ callee ->
            if callee = "check_data" then
              found := Some (Ipet.Callsite.make ~occurrence:occ b.P.id))
          (P.calls_of_block b))
      task_f.P.blocks;
    match !found with Some s -> s | None -> Alcotest.fail "no call site"
  in
  let open Functional in
  let x_return0 = x_at_in ~path:[ call_site ] ~func:"check_data" ~line:21 in
  let x_clear_entry = x ~func:"clear_data" 0 in
  let linked = Analysis.analyze
      (Analysis.spec prog ~root:"task" ~loop_bounds
         ~functional:[ x_clear_entry =. x_return0 ])
  in
  check_bool "constraint solvable" true
    (linked.Analysis.wcet.Analysis.cycles > 0);
  check_bool "tightens or equals" true
    (linked.Analysis.wcet.Analysis.cycles <= plain.Analysis.wcet.Analysis.cycles);
  (* simulate both outcomes and check enclosure *)
  let run data0 =
    let m = Interp.create prog ~init:compiled.Compile.init_data in
    Interp.write_global m "data" 0 (V.Vint data0);
    ignore (Interp.call m "task" []);
    Interp.cycles m
  in
  let t_clear = run (-5) (* negative -> check fails -> clear_data runs *) in
  let t_ok = run 5 in
  List.iter
    (fun t ->
      check_bool "simulation within linked bound" true
        (linked.Analysis.bcet.Analysis.cycles <= t
         && t <= linked.Analysis.wcet.Analysis.cycles))
    [ t_clear; t_ok ]

(* --- soundness property -------------------------------------------------- *)

let prop_soundness_random_programs =
  (* For random loop-free programs (no annotations needed), the analysis
     bound must enclose the simulated time for any argument. *)
  QCheck.Test.make ~name:"WCET/BCET enclose simulation (loop-free programs)"
    ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range (-8) 8))
    (fun (seed, arg) ->
      (* reuse the random generator but strip while loops by seeding only
         if/else shapes: regenerate until loop-free *)
      let rec loop_free_src s =
        let src = Test_cfg.random_program_src s in
        let compiled = compile src in
        let f = P.find_func compiled.Compile.prog "f" in
        let cfg = Ipet_cfg.Cfg.of_func f in
        let dom = Ipet_cfg.Dominators.compute cfg in
        if Ipet_cfg.Loops.detect cfg dom = [] then (src, compiled)
        else loop_free_src (s + 7919)
      in
      let src, compiled = loop_free_src seed in
      ignore src;
      let spec = Analysis.spec compiled.Compile.prog ~root:"f" in
      let result = Analysis.analyze spec in
      let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
      Interp.flush_cache m;
      ignore (Interp.call m "f" [ V.Vint arg ]);
      let t = Interp.cycles m in
      result.Analysis.bcet.Analysis.cycles <= t
      && t <= result.Analysis.wcet.Analysis.cycles)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_structural_random; prop_soundness_random_programs ]

let suite =
  [ ("structural if-else", `Quick, test_structural_if_else);
    ("structural while", `Quick, test_structural_while);
    ("structural with calls", `Quick, test_structural_calls);
    ("structural fig2 count", `Quick, test_structural_fig2_shape);
    ("dnf expansion counts", `Quick, test_dnf_counts);
    ("null-set pruning", `Quick, test_null_pruning);
    ("negative count pruning", `Quick, test_null_pruning_negative_count);
    ("check_data bound encloses runs", `Quick, test_check_data_bounds_enclose_simulation);
    ("check_data WCET = calculated", `Quick, test_check_data_wcet_equals_calculated);
    ("check_data functionality tightens", `Quick, test_check_data_functionality_tightens);
    ("missing loop bound detected", `Quick, test_missing_loop_bound_detected);
    ("fig6 caller/callee constraint", `Quick, test_fig6_scoped_constraint);
    ("int63 overflow is an analysis error", `Quick, test_int63_overflow) ]
  @ props
