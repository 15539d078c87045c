(* Tests for linear expressions, the exact simplex and branch-and-bound. *)

open Ipet_num
module L = Ipet_lp.Linexpr
module P = Ipet_lp.Lp_problem
module S = Ipet_lp.Simplex
module I = Ipet_lp.Ilp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rat_testable = Alcotest.testable Rat.pp Rat.equal

(* --- Linexpr ----------------------------------------------------------- *)

let test_linexpr_basic () =
  let open L.Infix in
  let e = v "x" + (2 * v "y") - int 3 in
  Alcotest.check rat_testable "coeff x" Rat.one (L.coeff e "x");
  Alcotest.check rat_testable "coeff y" (Rat.of_int 2) (L.coeff e "y");
  Alcotest.check rat_testable "coeff z" Rat.zero (L.coeff e "z");
  Alcotest.check rat_testable "const" (Rat.of_int (-3)) (L.constant e);
  check_bool "vars" true (L.vars e = [ "x"; "y" ])

let test_linexpr_cancel () =
  let open L.Infix in
  let e = v "x" + v "y" - v "x" in
  check_bool "x cancelled" true (L.vars e = [ "y" ]);
  check_bool "equal" true (L.equal e (v "y"))

let test_linexpr_eval () =
  let open L.Infix in
  let e = (3 * v "x") + (2 * v "y") + int 1 in
  let env = function "x" -> Rat.of_int 4 | _ -> Rat.of_int 5 in
  Alcotest.check rat_testable "eval" (Rat.of_int 23) (L.eval env e)

(* --- Simplex ----------------------------------------------------------- *)

let lp_max objective constraints = P.make P.Maximize objective constraints

let opt_value = function
  | S.Optimal { value; _ } -> value
  | S.Infeasible -> Alcotest.fail "unexpected infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_simplex_textbook () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6) *)
  let open L.Infix in
  let p =
    lp_max
      ((3 * v "x") + (5 * v "y"))
      [ P.le (v "x") (int 4);
        P.le (2 * v "y") (int 12);
        P.le ((3 * v "x") + (2 * v "y")) (int 18) ]
  in
  match S.solve p with
  | S.Optimal { value; assignment; _ } ->
    Alcotest.check rat_testable "value" (Rat.of_int 36) value;
    let env = S.assignment_env assignment in
    Alcotest.check rat_testable "x" (Rat.of_int 2) (env "x");
    Alcotest.check rat_testable "y" (Rat.of_int 6) (env "y")
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality_and_ge () =
  (* max x + y s.t. x + y = 10, x >= 3, y >= 2 -> 10 *)
  let open L.Infix in
  let p =
    lp_max (v "x" + v "y")
      [ P.eq (v "x" + v "y") (int 10); P.ge (v "x") (int 3); P.ge (v "y") (int 2) ]
  in
  Alcotest.check rat_testable "value" (Rat.of_int 10) (opt_value (S.solve p))

let test_simplex_minimize () =
  (* min 2x + 3y s.t. x + y >= 4, x >= 1 -> x=4? min at (4,0): 8 vs (1,3): 11 -> 8 *)
  let open L.Infix in
  let p =
    P.make P.Minimize ((2 * v "x") + (3 * v "y"))
      [ P.ge (v "x" + v "y") (int 4); P.ge (v "x") (int 1) ]
  in
  match S.solve p with
  | S.Optimal { value; _ } ->
    Alcotest.check rat_testable "value" (Rat.of_int 8) value
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let open L.Infix in
  let p = lp_max (v "x") [ P.ge (v "x") (int 5); P.le (v "x") (int 3) ] in
  check_bool "infeasible" true (S.solve p = S.Infeasible)

let test_simplex_unbounded () =
  let open L.Infix in
  let p = lp_max (v "x") [ P.ge (v "x") (int 1) ] in
  check_bool "unbounded" true (S.solve p = S.Unbounded)

let test_simplex_fractional_vertex () =
  (* max x + y s.t. 2x + y <= 3, x + 2y <= 3 -> x=y=1, but with
     3x + y <= 4, x + 3y <= 4 -> vertex (1,1): 2; fractional example:
     max y s.t. 2y <= 3 -> 3/2 *)
  let open L.Infix in
  let p = lp_max (v "y") [ P.le (2 * v "y") (int 3) ] in
  Alcotest.check rat_testable "3/2" (Rat.of_ints 3 2) (opt_value (S.solve p))

let test_simplex_degenerate () =
  (* degenerate: redundant constraints meeting at the same vertex *)
  let open L.Infix in
  let p =
    lp_max (v "x" + v "y")
      [ P.le (v "x" + v "y") (int 2);
        P.le (v "x") (int 2);
        P.le (v "y") (int 2);
        P.le ((2 * v "x") + (2 * v "y")) (int 4) ]
  in
  Alcotest.check rat_testable "value" (Rat.of_int 2) (opt_value (S.solve p))

let test_simplex_equality_redundant () =
  let open L.Infix in
  let p =
    lp_max (v "x")
      [ P.eq (v "x" + v "y") (int 5);
        P.eq ((2 * v "x") + (2 * v "y")) (int 10) ]
  in
  Alcotest.check rat_testable "value" (Rat.of_int 5) (opt_value (S.solve p))

(* property: the simplex optimum dominates random feasible points *)
let prop_simplex_dominates =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let coeff = int_range 0 5 in
        let pt = pair (int_range 0 6) (int_range 0 6) in
        triple (pair coeff coeff) (list_size (int_range 1 4) (triple coeff coeff (int_range 1 40))) pt)
  in
  QCheck.Test.make ~name:"simplex optimum dominates feasible points" ~count:300 gen
    (fun ((cx, cy), rows, (px, py)) ->
      (* constraints a x + b y <= r; the point (px, py) is kept feasible by
         construction: we only keep rows it satisfies. *)
      let rows =
        List.filter (fun (a, b, r) -> (a * px) + (b * py) <= r) rows
      in
      QCheck.assume (rows <> []);
      let row_expr (a, b, r) =
        L.Infix.(P.le ((a * v "x") + (b * v "y")) (int r))
      in
      (* bound the region so the LP is never unbounded *)
      let bound = L.Infix.(P.le (v "x" + v "y") (int 100)) in
      let constraints = bound :: List.map row_expr rows in
      let p =
        lp_max L.Infix.((cx * v "x") + (cy * v "y")) constraints
      in
      match S.solve p with
      | S.Optimal { value; assignment; _ } ->
        let env = S.assignment_env assignment in
        let point_value = Rat.of_int ((cx * px) + (cy * py)) in
        P.feasible env p && Rat.compare value point_value >= 0
      | S.Infeasible | S.Unbounded -> false)

(* --- ILP --------------------------------------------------------------- *)

let test_ilp_knapsack () =
  (* max 8a + 11b + 6c s.t. 5a + 7b + 4c <= 14, a,b,c <= 1 -> a=b=1: 19?
     check: a=1,b=1: weight 12, value 19; b=1,c=1: 11, 17; a=1,c=1: 9, 14;
     a=b=c=1 weight 16 > 14. optimum 19. LP relaxation is fractional. *)
  let open L.Infix in
  let p =
    lp_max
      ((8 * v "a") + (11 * v "b") + (6 * v "c"))
      [ P.le ((5 * v "a") + (7 * v "b") + (4 * v "c")) (int 14);
        P.le (v "a") (int 1); P.le (v "b") (int 1); P.le (v "c") (int 1) ]
  in
  match I.solve p with
  | I.Optimal { value; stats; _ } ->
    Alcotest.check rat_testable "value" (Rat.of_int 19) value;
    check_bool "root LP fractional" false stats.I.first_lp_integral;
    check_bool "several LP calls" true (stats.I.lp_calls > 1);
    (* the root alone cannot settle it, so a one-node cap must trip *)
    check_bool "one-node cap raises Node_limit_exceeded" true
      (match I.solve ~max_nodes:1 p with
       | exception I.Node_limit_exceeded -> true
       | _ -> false)
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_integral_root () =
  (* pure flow-style problem: root LP already integral *)
  let open L.Infix in
  let p =
    lp_max (v "x" + v "y")
      [ P.eq (v "x") (int 1); P.le (v "y") (10 * v "x") ]
  in
  match I.solve p with
  | I.Optimal { value; stats; _ } ->
    Alcotest.check rat_testable "value" (Rat.of_int 11) value;
    check_bool "first LP integral" true stats.I.first_lp_integral;
    check_int "one LP call" 1 stats.I.lp_calls
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_minimize () =
  let open L.Infix in
  (* min 3x + 2y s.t. 5x + 4y >= 17, integers: candidates x=1,y=3 -> 9;
     x=0,y=5 -> 10; x=2,y=2 -> 10; x=3,y=1 -> 11; optimum 9 *)
  let p =
    P.make P.Minimize ((3 * v "x") + (2 * v "y"))
      [ P.ge ((5 * v "x") + (4 * v "y")) (int 17) ]
  in
  match I.solve p with
  | I.Optimal { value; _ } ->
    Alcotest.check rat_testable "value" (Rat.of_int 9) value
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_infeasible () =
  let open L.Infix in
  (* 2 <= 2x <= 3 has no integer solution: x must be 1 <= x <= 3/2...
     actually x=1 gives 2, feasible. Use 3 <= 2x <= 3: x = 3/2 only. *)
  let p =
    lp_max (v "x") [ P.ge (2 * v "x") (int 3); P.le (2 * v "x") (int 3) ]
  in
  check_bool "infeasible" true
    (match I.solve p with I.Infeasible _ -> true | _ -> false)

let test_ilp_unbounded () =
  let open L.Infix in
  let p = lp_max (v "x") [ P.ge (v "x") (int 0) ] in
  check_bool "unbounded" true
    (match I.solve p with I.Unbounded _ -> true | _ -> false)

(* property: branch-and-bound agrees with brute force on small ILPs *)
let prop_ilp_matches_bruteforce =
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair
          (pair (int_range (-3) 5) (int_range (-3) 5))
          (list_size (int_range 1 3)
             (triple (int_range (-2) 4) (int_range (-2) 4) (int_range 0 25))))
  in
  QCheck.Test.make ~name:"ILP = brute force on boxed problems" ~count:150 gen
    (fun ((cx, cy), rows) ->
      let box = 6 in
      let row_expr (a, b, r) =
        L.Infix.(P.le ((a * v "x") + (b * v "y")) (int r))
      in
      let constraints =
        L.Infix.(P.le (v "x") (int box))
        :: L.Infix.(P.le (v "y") (int box))
        :: List.map row_expr rows
      in
      let p = lp_max L.Infix.((cx * v "x") + (cy * v "y")) constraints in
      let brute = ref None in
      for x = 0 to box do
        for y = 0 to box do
          if List.for_all (fun (a, b, r) -> (a * x) + (b * y) <= r) rows then begin
            let value = (cx * x) + (cy * y) in
            match !brute with
            | None -> brute := Some value
            | Some best -> if value > best then brute := Some value
          end
        done
      done;
      match (I.solve p, !brute) with
      | I.Optimal { value; _ }, Some best -> Rat.equal value (Rat.of_int best)
      | I.Infeasible _, None -> true
      | _ -> false)

(* --- LP-format export ------------------------------------------------------- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_lp_format () =
  let open L.Infix in
  let p =
    lp_max ((3 * v "x:flow") + v "y@ctx")
      [ P.le (v "x:flow" + v "y@ctx") (int 7);
        P.ge (v "x:flow") (int 1);
        P.eq (v "y@ctx") (int 2) ]
  in
  let text = Ipet_lp.Lp_format.to_string ~name:"demo" p in
  check_bool "has maximize" true (contains ~needle:"Maximize" text);
  check_bool "has subject to" true (contains ~needle:"Subject To" text);
  check_bool "has general section" true (contains ~needle:"General" text);
  check_bool "has end" true (contains ~needle:"End" text);
  check_bool "aliases documented" true (contains ~needle:"v0 = x:flow" text);
  (* sanitized names only in the body: the raw ':' names appear in comments *)
  let body =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '\\')
    |> String.concat "\n"
  in
  check_bool "no raw names in body" false (contains ~needle:"x:flow" body)

let test_lp_format_minimize () =
  let open L.Infix in
  let p = P.make P.Minimize (v "a") [ P.ge (v "a") (int 3) ] in
  let text = Ipet_lp.Lp_format.to_string p in
  check_bool "has minimize" true (contains ~needle:"Minimize" text);
  check_bool "rhs rendered" true (contains ~needle:">= 3" text)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simplex_dominates; prop_ilp_matches_bruteforce ]

let suite =
  [ ("linexpr basics", `Quick, test_linexpr_basic);
    ("linexpr cancellation", `Quick, test_linexpr_cancel);
    ("linexpr eval", `Quick, test_linexpr_eval);
    ("simplex textbook", `Quick, test_simplex_textbook);
    ("simplex equality and >=", `Quick, test_simplex_equality_and_ge);
    ("simplex minimize", `Quick, test_simplex_minimize);
    ("simplex infeasible", `Quick, test_simplex_infeasible);
    ("simplex unbounded", `Quick, test_simplex_unbounded);
    ("simplex fractional vertex", `Quick, test_simplex_fractional_vertex);
    ("simplex degenerate", `Quick, test_simplex_degenerate);
    ("simplex redundant equalities", `Quick, test_simplex_equality_redundant);
    ("ilp knapsack", `Quick, test_ilp_knapsack);
    ("ilp integral root", `Quick, test_ilp_integral_root);
    ("ilp minimize", `Quick, test_ilp_minimize);
    ("ilp infeasible", `Quick, test_ilp_infeasible);
    ("ilp unbounded", `Quick, test_ilp_unbounded);
    ("lp format export", `Quick, test_lp_format);
    ("lp format minimize", `Quick, test_lp_format_minimize) ]
  @ props
