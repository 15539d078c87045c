(* Differential oracle for the exact solvers.

   Random small problems are solved twice: once by the production code
   ({!Ipet_lp.Simplex}, {!Ipet_lp.Ilp}) and once by a brute-force method
   whose correctness is self-evident — exact-rational vertex enumeration
   for LPs, exhaustive integer-box enumeration for ILPs. Every generated
   problem carries a box constraint [Σ xᵢ <= M], so the feasible region is
   bounded (and, lying in the non-negative orthant, pointed): a non-empty
   region always has a vertex and Unbounded is impossible, which is what
   makes the naive oracles complete. *)

module L = Ipet_lp.Linexpr
module P = Ipet_lp.Lp_problem
module S = Ipet_lp.Simplex
module I = Ipet_lp.Ilp
module Rat = Ipet_num.Rat

(* --- random problem generation ----------------------------------------- *)

type shape = {
  problem : P.t;
  gvars : string list;  (** in generation order, length 2 or 3 *)
  box : int;  (** every variable is within [0..box] at any feasible point *)
}

let gen_problem rng =
  let n = 2 + Random.State.int rng 2 in
  let gvars = List.init n (fun i -> Printf.sprintf "x%d" (i + 1)) in
  let coeff () = Random.State.int rng 7 - 3 in
  let lin const =
    List.fold_left
      (fun acc v -> L.add acc (L.var ~coeff:(Rat.of_int (coeff ())) v))
      (L.of_int const) gvars
  in
  let rel () =
    match Random.State.int rng 10 with
    | 0 -> P.Eq
    | k when k < 5 -> P.Le
    | _ -> P.Ge
  in
  let n_cons = 2 + Random.State.int rng 3 in
  let random_cons =
    List.init n_cons (fun _ ->
        P.constr (lin (Random.State.int rng 13 - 6)) (rel ()))
  in
  let box = 1 + Random.State.int rng 7 in
  let box_cons =
    P.le
      (List.fold_left (fun acc v -> L.add acc (L.var v)) L.zero gvars)
      (L.of_int box)
  in
  let objective = lin 0 in
  let direction =
    if Random.State.bool rng then P.Maximize else P.Minimize
  in
  { problem = P.make direction objective (box_cons :: random_cons); gvars; box }

(* --- exact Gaussian elimination ---------------------------------------- *)

(* Solve the square system [m * x = rhs]; [None] when singular. *)
let gauss_solve (m : Rat.t array array) (rhs : Rat.t array) =
  let n = Array.length rhs in
  let a = Array.init n (fun i -> Array.append (Array.copy m.(i)) [| rhs.(i) |]) in
  let singular = ref false in
  for col = 0 to n - 1 do
    if not !singular then begin
      let pivot = ref None in
      for i = n - 1 downto col do
        if not (Rat.is_zero a.(i).(col)) then pivot := Some i
      done;
      (match !pivot with
       | None -> singular := true
       | Some p ->
         let tmp = a.(col) in
         a.(col) <- a.(p);
         a.(p) <- tmp;
         let inv = Rat.inv a.(col).(col) in
         for j = col to n do
           a.(col).(j) <- Rat.mul inv a.(col).(j)
         done;
         for i = 0 to n - 1 do
           if i <> col && not (Rat.is_zero a.(i).(col)) then begin
             let f = a.(i).(col) in
             for j = col to n do
               a.(i).(j) <- Rat.sub a.(i).(j) (Rat.mul f a.(col).(j))
             done
           end
         done)
    end
  done;
  if !singular then None else Some (Array.init n (fun i -> a.(i).(n)))

(* --- brute-force LP: vertex enumeration -------------------------------- *)

(* Candidate hyperplanes: each constraint taken at equality, plus each
   coordinate plane xᵢ = 0. Any vertex of the feasible region is the
   unique intersection of [n] of them. *)
let brute_force_lp { problem; gvars; _ } =
  let n = List.length gvars in
  let vars = Array.of_list gvars in
  let planes =
    (* (coefficient row, rhs) encoding Σ aᵢ xᵢ = rhs *)
    List.map
      (fun (c : P.constr) ->
        ( Array.map (fun v -> L.coeff c.P.expr v) vars,
          Rat.neg (L.constant c.P.expr) ))
      problem.P.constraints
    @ List.init n (fun i ->
          (Array.init n (fun j -> if i = j then Rat.one else Rat.zero), Rat.zero))
  in
  let planes = Array.of_list planes in
  let best = ref None in
  let consider point =
    let env x =
      let rec find i =
        if i >= n then Rat.zero
        else if vars.(i) = x then point.(i)
        else find (i + 1)
      in
      find 0
    in
    if P.feasible env problem then begin
      let value = L.eval env problem.P.objective in
      let better =
        match !best with
        | None -> true
        | Some (b, _) -> (
          match problem.P.direction with
          | P.Maximize -> Rat.compare value b > 0
          | P.Minimize -> Rat.compare value b < 0)
      in
      if better then best := Some (value, Array.copy point)
    end
  in
  (* all n-subsets of planes *)
  let rec choose start chosen =
    if List.length chosen = n then begin
      let rows = List.rev chosen in
      let m = Array.of_list (List.map (fun (row, _) -> row) rows) in
      let rhs = Array.of_list (List.map snd rows) in
      match gauss_solve m rhs with
      | Some point -> consider point
      | None -> ()
    end
    else
      for i = start to Array.length planes - 1 do
        choose (i + 1) (planes.(i) :: chosen)
      done
  in
  choose 0 [];
  !best

let prop_simplex_matches_vertex_enumeration =
  QCheck.Test.make ~name:"simplex agrees with exact vertex enumeration"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x5eed |] in
      let shape = gen_problem rng in
      let brute = brute_force_lp shape in
      match (S.solve shape.problem, brute) with
      | S.Infeasible, None -> true
      | S.Infeasible, Some _ ->
        QCheck.Test.fail_report "simplex says infeasible, a vertex exists"
      | S.Optimal _, None ->
        QCheck.Test.fail_report "simplex says optimal, no feasible vertex"
      | S.Unbounded, _ ->
        QCheck.Test.fail_report "unbounded on a box-bounded problem"
      | S.Optimal { value; assignment; _ }, Some (best, _) ->
        let env = S.assignment_env assignment in
        if not (P.feasible env shape.problem) then
          QCheck.Test.fail_report "simplex assignment infeasible"
        else if not (Rat.equal (L.eval env shape.problem.P.objective) value)
        then QCheck.Test.fail_report "assignment does not achieve the value"
        else if not (Rat.equal value best) then
          QCheck.Test.fail_report
            (Printf.sprintf "optimum mismatch: simplex %s, enumeration %s"
               (Rat.to_string value) (Rat.to_string best))
        else true)

(* --- brute-force ILP: integer-box enumeration --------------------------- *)

(* The box constraint gives xᵢ ∈ [0..M] at any feasible point, so the
   integer optimum is found by trying every point of the box. *)
let brute_force_ilp { problem; gvars; box } =
  let vars = Array.of_list gvars in
  let n = Array.length vars in
  let point = Array.make n Rat.zero in
  let best = ref None in
  let env x =
    let rec find i =
      if i >= n then Rat.zero
      else if vars.(i) = x then point.(i)
      else find (i + 1)
    in
    find 0
  in
  let rec enumerate i =
    if i = n then begin
      if P.feasible env problem then begin
        let value = L.eval env problem.P.objective in
        let better =
          match !best with
          | None -> true
          | Some b -> (
            match problem.P.direction with
            | P.Maximize -> Rat.compare value b > 0
            | P.Minimize -> Rat.compare value b < 0)
        in
        if better then best := Some value
      end
    end
    else
      for k = 0 to box do
        point.(i) <- Rat.of_int k;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  !best

let check_ilp_against_enumeration ~presolve shape brute =
  match (I.solve ~presolve shape.problem, brute) with
  | I.Infeasible _, None -> true
  | I.Infeasible _, Some _ ->
    QCheck.Test.fail_report "ILP says infeasible, an integer point exists"
  | I.Optimal _, None ->
    QCheck.Test.fail_report "ILP says optimal, no feasible integer point"
  | I.Unbounded _, _ ->
    QCheck.Test.fail_report "ILP unbounded on a box-bounded problem"
  | I.Optimal { value; assignment; _ }, Some best ->
    let env = S.assignment_env assignment in
    if not (List.for_all (fun (_, q) -> Rat.is_integer q) assignment) then
      QCheck.Test.fail_report "ILP assignment not integral"
    else if not (P.feasible env shape.problem) then
      QCheck.Test.fail_report "ILP assignment infeasible"
    else if not (Rat.equal (L.eval env shape.problem.P.objective) value) then
      QCheck.Test.fail_report "ILP assignment does not achieve the value"
    else if not (Rat.equal value best) then
      QCheck.Test.fail_report
        (Printf.sprintf "ILP optimum mismatch: solver %s, enumeration %s"
           (Rat.to_string value) (Rat.to_string best))
    else true

let prop_ilp_matches_box_enumeration =
  QCheck.Test.make ~name:"branch-and-bound agrees with integer enumeration"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x11e9 |] in
      let shape = gen_problem rng in
      let brute = brute_force_ilp shape in
      check_ilp_against_enumeration ~presolve:true shape brute
      && check_ilp_against_enumeration ~presolve:false shape brute)

(* --- hand-picked solver stress cases ------------------------------------ *)

module Dense = Ipet_lp.Dense

let rat a b = Rat.of_ints a b

let check_optimal name expected = function
  | S.Optimal { value; assignment; _ } ->
    Alcotest.(check bool)
      (name ^ ": optimum")
      true
      (Rat.equal value expected);
    let env = S.assignment_env assignment in
    env
  | S.Infeasible -> Alcotest.fail (name ^ ": unexpectedly infeasible")
  | S.Unbounded -> Alcotest.fail (name ^ ": unexpectedly unbounded")

(* Beale's classic cycling example: maximally degenerate (every ratio test
   at the origin ties at zero), the textbook witness that Dantzig pricing
   cycles. Bland's rule — which both solvers implement — must terminate at
   z* = 1/20, x = (1/25, 0, 1, 0). *)
let test_beale_degenerate () =
  let x1 = "x1" and x2 = "x2" and x3 = "x3" and x4 = "x4" in
  let lin l =
    List.fold_left
      (fun acc (c, v) -> L.add acc (L.var ~coeff:c v))
      L.zero l
  in
  let problem =
    P.make P.Maximize
      (lin [ (rat 3 4, x1); (Rat.of_int (-150), x2); (rat 1 50, x3);
             (Rat.of_int (-6), x4) ])
      [ P.le
          (lin [ (rat 1 4, x1); (Rat.of_int (-60), x2); (rat (-1) 25, x3);
                 (Rat.of_int 9, x4) ])
          L.zero;
        P.le
          (lin [ (rat 1 2, x1); (Rat.of_int (-90), x2); (rat (-1) 50, x3);
                 (Rat.of_int 3, x4) ])
          L.zero;
        P.le (lin [ (Rat.one, x3) ]) (L.of_int 1) ]
  in
  let env = check_optimal "beale" (rat 1 20) (S.solve problem) in
  Alcotest.(check bool) "beale: x1 = 1/25" true (Rat.equal (env x1) (rat 1 25));
  Alcotest.(check bool) "beale: x3 = 1" true (Rat.equal (env x3) Rat.one);
  (* the dense tableau must walk the identical trajectory *)
  (match Dense.solve problem with
   | Dense.Optimal { value; _ } ->
     Alcotest.(check bool) "beale: dense agrees" true (Rat.equal value (rat 1 20))
   | _ -> Alcotest.fail "beale: dense solver disagrees")

(* Linearly dependent rows: the refactorization's elimination must cope
   with a rank-deficient basis candidate set (the duplicate slack rows
   can never both be pivotal). *)
let test_redundant_rows () =
  let lin l =
    List.fold_left
      (fun acc (c, v) -> L.add acc (L.var ~coeff:(Rat.of_int c) v))
      L.zero l
  in
  let problem =
    P.make P.Maximize
      (lin [ (3, "x"); (2, "y") ])
      [ P.le (lin [ (1, "x"); (1, "y") ]) (L.of_int 5);
        P.le (lin [ (1, "x"); (1, "y") ]) (L.of_int 5);
        P.le (lin [ (2, "x"); (2, "y") ]) (L.of_int 10);
        P.eq (lin [ (1, "x"); (-1, "y") ]) (L.of_int 1);
        P.eq (lin [ (2, "x"); (-2, "y") ]) (L.of_int 2) ]
  in
  (* x - y = 1, x + y = 5 -> (3, 2), z = 13 *)
  let env = check_optimal "redundant" (Rat.of_int 13) (S.solve problem) in
  Alcotest.(check bool) "redundant: x = 3" true (Rat.equal (env "x") (Rat.of_int 3));
  Alcotest.(check bool) "redundant: y = 2" true (Rat.equal (env "y") (Rat.of_int 2))

(* Columns that appear in no constraint: an unfavourable one must stay at
   its lower bound, a favourable one makes the LP unbounded. *)
let test_empty_column () =
  let lin l =
    List.fold_left
      (fun acc (c, v) -> L.add acc (L.var ~coeff:(Rat.of_int c) v))
      L.zero l
  in
  let bounded =
    P.make P.Maximize
      (lin [ (5, "x"); (-2, "loose") ])
      [ P.le (lin [ (1, "x") ]) (L.of_int 4) ]
  in
  let env = check_optimal "empty-column" (Rat.of_int 20) (S.solve bounded) in
  Alcotest.(check bool) "empty-column: loose stays 0" true
    (Rat.is_zero (env "loose"));
  let unbounded =
    P.make P.Maximize
      (lin [ (5, "x"); (2, "loose") ])
      [ P.le (lin [ (1, "x") ]) (L.of_int 4) ]
  in
  (match S.solve unbounded with
   | S.Unbounded -> ()
   | _ -> Alcotest.fail "empty-column: favourable free column not unbounded")

(* The rewritten solver must match the historical dense tableau not just
   in value but in the witness assignment — the trajectory-parity claim
   golden reports rest on. *)
let prop_revised_matches_dense =
  QCheck.Test.make ~name:"revised simplex replays the dense trajectory"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xde45 |] in
      let shape = gen_problem rng in
      match (S.solve shape.problem, Dense.solve shape.problem) with
      | S.Infeasible, Dense.Infeasible -> true
      | S.Unbounded, Dense.Unbounded -> true
      | S.Optimal { value = rv; assignment = ra; _ },
        Dense.Optimal { value = dv; assignment = da } ->
        (Rat.equal rv dv
         || QCheck.Test.fail_report
              (Printf.sprintf "value mismatch: revised %s, dense %s"
                 (Rat.to_string rv) (Rat.to_string dv)))
        && (ra = da
            || QCheck.Test.fail_report "witness assignment mismatch")
      | _ -> QCheck.Test.fail_report "verdict mismatch")

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simplex_matches_vertex_enumeration; prop_ilp_matches_box_enumeration;
      prop_revised_matches_dense ]
  @ [ Alcotest.test_case "Beale degenerate LP terminates (Bland)" `Quick
        test_beale_degenerate;
      Alcotest.test_case "redundant rows are harmless" `Quick
        test_redundant_rows;
      Alcotest.test_case "empty columns: idle vs unbounded" `Quick
        test_empty_column ]
