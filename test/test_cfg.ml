(* CFG, dominator, loop and call-graph tests. *)

module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module P = Ipet_isa.Prog
module Cfg = Ipet_cfg.Cfg
module Dominators = Ipet_cfg.Dominators
module Loops = Ipet_cfg.Loops
module Callgraph = Ipet_cfg.Callgraph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg_of src name =
  let compiled = Frontend.compile_string_exn src in
  Cfg.of_func (P.find_func compiled.Compile.prog name)

let prog_of src = (Frontend.compile_string_exn src).Compile.prog

let diamond_src =
  "int f(int p) { int q; if (p) q = 1; else q = 2; return q; }"

let while_src =
  "int g(int p) { int q; q = p; while (q < 10) q = q + 1; return q; }"

let nested_src = {|
int h(int n) {
  int i; int j; int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < i; j = j + 1) {
      s = s + j;
    }
  }
  return s;
}
|}

let test_diamond_structure () =
  let cfg = cfg_of diamond_src "f" in
  check_int "blocks" 4 (Cfg.nblocks cfg);
  check_int "entry succs" 2 (List.length (Cfg.succs cfg 0));
  check_int "edges (fig 2 has d1..d6 incl. virtual)" 4 (List.length (Cfg.edges cfg));
  check_int "exits" 1 (List.length (Cfg.exit_blocks cfg))

let test_preds_are_inverse () =
  let cfg = cfg_of while_src "g" in
  List.iter
    (fun { Cfg.src; dst } ->
      check_bool "pred edge exists" true (List.mem src (Cfg.preds cfg dst)))
    (Cfg.edges cfg)

let test_rpo_starts_at_entry () =
  let cfg = cfg_of while_src "g" in
  let rpo = Cfg.reverse_postorder cfg in
  check_int "entry first" 0 rpo.(0);
  check_int "all reachable" (Cfg.nblocks cfg) (Array.length rpo)

let test_dominators_diamond () =
  let cfg = cfg_of diamond_src "f" in
  let dom = Dominators.compute cfg in
  (* entry dominates everything; neither branch dominates the join *)
  for b = 0 to Cfg.nblocks cfg - 1 do
    check_bool "entry dominates" true (Dominators.dominates dom 0 b)
  done;
  let join =
    (* the block with two predecessors *)
    let rec find b = if List.length (Cfg.preds cfg b) = 2 then b else find (b + 1) in
    find 0
  in
  List.iter
    (fun branch ->
      check_bool "branch does not dominate join" false
        (Dominators.dominates dom branch join))
    (Cfg.succs cfg 0);
  check_int "idom of join is entry" 0 (Dominators.idom dom join)

let test_loop_detection_while () =
  let cfg = cfg_of while_src "g" in
  let dom = Dominators.compute cfg in
  let loops = Loops.detect cfg dom in
  check_int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check_int "depth" 1 l.Loops.depth;
  check_int "one back edge" 1 (List.length l.Loops.back_edges);
  check_int "one entry edge" 1 (List.length (Loops.entry_edges cfg l));
  check_int "one iteration edge" 1 (List.length (Loops.iteration_edges cfg l));
  (* the iteration edge leaves the header into the body *)
  let (hdr, body) = List.hd (Loops.iteration_edges cfg l) in
  check_int "from header" l.Loops.header hdr;
  check_bool "into body" true (Loops.in_loop l body)

let test_nested_loops () =
  let cfg = cfg_of nested_src "h" in
  let dom = Dominators.compute cfg in
  let loops = Loops.detect cfg dom in
  check_int "two loops" 2 (List.length loops);
  let depths = List.sort compare (List.map (fun l -> l.Loops.depth) loops) in
  check_bool "depths 1 and 2" true (depths = [ 1; 2 ]);
  (* the inner loop's body is contained in the outer loop's body *)
  let outer = List.find (fun l -> l.Loops.depth = 1) loops in
  let inner = List.find (fun l -> l.Loops.depth = 2) loops in
  Array.iteri
    (fun b inside ->
      if inside then check_bool "containment" true outer.Loops.body.(b))
    inner.Loops.body

let test_self_loop () =
  (* a loop whose body is just the header: do-style via for with empty body *)
  let src = "int f(int n) { int i; for (i = 0; i < n; i = i + 1) { } return i; }" in
  let cfg = cfg_of src "f" in
  let dom = Dominators.compute cfg in
  let loops = Loops.detect cfg dom in
  check_int "one loop" 1 (List.length loops)

let test_callgraph () =
  let src = {|
    int leaf(int x) { return x + 1; }
    int mid(int x) { return leaf(x) + leaf(x + 1); }
    int top(int x) { return mid(leaf(x)); }
  |} in
  let cg = Callgraph.of_program (prog_of src) in
  check_int "sites" 4 (List.length (Callgraph.sites cg));
  check_bool "acyclic" true (Callgraph.check_acyclic cg = Ok ());
  let order = Callgraph.topological_order cg in
  let pos name =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = name then i else go (i + 1) rest
    in
    go 0 order
  in
  check_bool "leaf before mid" true (pos "leaf" < pos "mid");
  check_bool "mid before top" true (pos "mid" < pos "top")

let test_callgraph_two_calls_one_block () =
  let src = {|
    int leaf(int x) { return x + 1; }
    int two(int x) { return leaf(x) + leaf(x); }
  |} in
  let cg = Callgraph.of_program (prog_of src) in
  let sites = Callgraph.sites_of_caller cg "two" in
  check_int "two sites" 2 (List.length sites);
  let occs = List.sort compare (List.map (fun s -> s.Callgraph.occurrence) sites) in
  check_bool "occurrences 0 and 1" true (occs = [ 0; 1 ])

let test_recursion_detected () =
  let src = {|
    int odd(int n) { if (n == 0) return 0; return even(n - 1); }
    int even(int n) { if (n == 0) return 1; return odd(n - 1); }
  |} in
  let cg = Callgraph.of_program (prog_of src) in
  match Callgraph.check_acyclic cg with
  | Error cycle -> check_bool "cycle found" true (List.length cycle >= 2)
  | Ok () -> Alcotest.fail "expected a recursive cycle"

let test_dot_export () =
  let cfg = cfg_of while_src "g" in
  let dom = Dominators.compute cfg in
  let loops = Loops.detect cfg dom in
  let dot = Ipet_cfg.Dot.cfg_to_dot ~highlight_loops:loops cfg in
  check_bool "has digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  check_bool "highlights a back edge" true
    (Test_lp.contains ~needle:"color=red" dot)

(* property: dominator sets on random structured programs are consistent:
   idom(b) dominates b, and every predecessor path respects dominance *)
let random_program_src seed =
  (* generate a random nest of if/while statements over a few variables *)
  let st = Random.State.make [| seed |] in
  let buf = Buffer.create 128 in
  let rec stmts depth budget =
    if budget <= 0 then Buffer.add_string buf "s = s + 1;\n"
    else begin
      for _ = 1 to 1 + Random.State.int st 2 do
        match Random.State.int st (if depth > 2 then 2 else 4) with
        | 0 -> Buffer.add_string buf "s = s + a;\n"
        | 1 -> Buffer.add_string buf "a = a - 1;\n"
        | 2 ->
          Buffer.add_string buf "if (a > 0) {\n";
          stmts (depth + 1) (budget - 1);
          Buffer.add_string buf "} else {\n";
          stmts (depth + 1) (budget - 1);
          Buffer.add_string buf "}\n"
        | _ ->
          Buffer.add_string buf "while (a > 0) {\na = a - 1;\n";
          stmts (depth + 1) (budget - 1);
          Buffer.add_string buf "}\n"
      done
    end
  in
  Buffer.add_string buf "int f(int a) {\nint s;\ns = 0;\n";
  stmts 0 3;
  Buffer.add_string buf "return s;\n}\n";
  Buffer.contents buf

let prop_dominators_consistent =
  QCheck.Test.make ~name:"dominators consistent on random programs" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = cfg_of (random_program_src seed) "f" in
      let dom = Dominators.compute cfg in
      let ok = ref true in
      for b = 0 to Cfg.nblocks cfg - 1 do
        if b <> 0 then begin
          (* idom dominates b and differs from b *)
          let i = Dominators.idom dom b in
          if not (Dominators.dominates dom i b) then ok := false;
          (* every predecessor of b is dominated by idom(b) too *)
          List.iter
            (fun p -> if not (Dominators.dominates dom i p) && i <> b then ok := false)
            (Cfg.preds cfg b)
        end
      done;
      !ok)

let props = List.map QCheck_alcotest.to_alcotest [ prop_dominators_consistent ]

let suite =
  [ ("diamond structure", `Quick, test_diamond_structure);
    ("preds inverse of succs", `Quick, test_preds_are_inverse);
    ("rpo starts at entry", `Quick, test_rpo_starts_at_entry);
    ("dominators on diamond", `Quick, test_dominators_diamond);
    ("while loop detection", `Quick, test_loop_detection_while);
    ("nested loops", `Quick, test_nested_loops);
    ("empty-body loop", `Quick, test_self_loop);
    ("call graph", `Quick, test_callgraph);
    ("two calls in one block", `Quick, test_callgraph_two_calls_one_block);
    ("recursion detected", `Quick, test_recursion_detected);
    ("dot export", `Quick, test_dot_export) ]
  @ props
