(* Two-phase primal simplex on a dense rational tableau (historical
   implementation, superseded by Revised; see dense.mli).

   Layout: columns 0..n_struct-1 are the problem variables, then one
   slack/surplus column per inequality, then one artificial column per
   Ge/Eq row. Each row i stores the equation sum_j a.(i).(j) x_j = b.(i)
   with b.(i) >= 0 and basis.(i) the basic column of the row. Entering and
   leaving variables follow Bland's rule, which prevents cycling. *)

open Ipet_num

type result =
  | Optimal of { value : Rat.t; assignment : (string * Rat.t) list }
  | Infeasible
  | Unbounded

type tableau = {
  a : Rat.t array array;  (* m rows * ncols *)
  b : Rat.t array;        (* m, always >= 0 *)
  basis : int array;      (* m, column basic in each row *)
  ncols : int;
  art_start : int;        (* columns >= art_start are artificial *)
  mutable npivots : int;  (* pivots performed on this tableau *)
}

let pivot t ~row ~col =
  t.npivots <- t.npivots + 1;
  let m = Array.length t.a in
  let p = t.a.(row).(col) in
  assert (not (Rat.is_zero p));
  let inv_p = Rat.inv p in
  for j = 0 to t.ncols - 1 do
    t.a.(row).(j) <- Rat.mul t.a.(row).(j) inv_p
  done;
  t.b.(row) <- Rat.mul t.b.(row) inv_p;
  for i = 0 to m - 1 do
    if i <> row && not (Rat.is_zero t.a.(i).(col)) then begin
      let f = t.a.(i).(col) in
      for j = 0 to t.ncols - 1 do
        t.a.(i).(j) <- Rat.sub t.a.(i).(j) (Rat.mul f t.a.(row).(j))
      done;
      t.b.(i) <- Rat.sub t.b.(i) (Rat.mul f t.b.(row))
    end
  done;
  t.basis.(row) <- col

(* reduced costs cbar_j = c_j - sum_i c_{basis i} a_ij, and objective value *)
let reduced_costs t cost =
  let m = Array.length t.a in
  let cbar = Array.copy cost in
  let z = ref Rat.zero in
  for i = 0 to m - 1 do
    let cb = cost.(t.basis.(i)) in
    if not (Rat.is_zero cb) then begin
      z := Rat.add !z (Rat.mul cb t.b.(i));
      for j = 0 to t.ncols - 1 do
        cbar.(j) <- Rat.sub cbar.(j) (Rat.mul cb t.a.(i).(j))
      done
    end
  done;
  (cbar, !z)

(* one phase of maximization; [allowed j] filters enterable columns *)
let rec run_phase t cost ~allowed =
  let cbar, _ = reduced_costs t cost in
  (* Bland: smallest-index column with positive reduced cost *)
  let rec find_entering j =
    if j >= t.ncols then None
    else if allowed j && Rat.sign cbar.(j) > 0 then Some j
    else find_entering (j + 1)
  in
  match find_entering 0 with
  | None -> `Optimal
  | Some col ->
    let m = Array.length t.a in
    (* min-ratio test, ties broken by smallest basis column (Bland) *)
    let best = ref None in
    for i = 0 to m - 1 do
      if Rat.sign t.a.(i).(col) > 0 then begin
        let ratio = Rat.div t.b.(i) t.a.(i).(col) in
        match !best with
        | None -> best := Some (i, ratio)
        | Some (bi, bratio) ->
          let c = Rat.compare ratio bratio in
          if c < 0 || (c = 0 && t.basis.(i) < t.basis.(bi)) then
            best := Some (i, ratio)
      end
    done;
    begin match !best with
    | None -> `Unbounded
    | Some (row, _) ->
      pivot t ~row ~col;
      run_phase t cost ~allowed
    end

(* Build the tableau from a problem, structural column [i] being the
   [i]th of [vars]. *)
let build ~vars problem =
  let n_struct = List.length vars in
  let var_index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.add var_index v i) vars;
  let constraints = Array.of_list problem.Lp_problem.constraints in
  let m = Array.length constraints in
  (* normalized rows: coefficients over structural vars, rhs >= 0, rel *)
  let rows =
    Array.map
      (fun (c : Lp_problem.constr) ->
        let coeffs = Array.make n_struct Rat.zero in
        Linexpr.fold_terms
          (fun v k () -> coeffs.(Hashtbl.find var_index v) <- k)
          c.Lp_problem.expr ();
        let rhs = Rat.neg (Linexpr.constant c.Lp_problem.expr) in
        if Rat.sign rhs < 0 then begin
          let coeffs = Array.map Rat.neg coeffs in
          let rel = match c.rel with
            | Lp_problem.Le -> Lp_problem.Ge
            | Lp_problem.Ge -> Lp_problem.Le
            | Lp_problem.Eq -> Lp_problem.Eq
          in
          (coeffs, Rat.neg rhs, rel)
        end
        else (coeffs, rhs, c.rel))
      constraints
  in
  let n_slack =
    Array.fold_left
      (fun acc (_, _, rel) ->
        match rel with Lp_problem.Le | Lp_problem.Ge -> acc + 1 | Lp_problem.Eq -> acc)
      0 rows
  in
  let n_art =
    Array.fold_left
      (fun acc (_, _, rel) ->
        match rel with Lp_problem.Ge | Lp_problem.Eq -> acc + 1 | Lp_problem.Le -> acc)
      0 rows
  in
  let art_start = n_struct + n_slack in
  let ncols = art_start + n_art in
  let a = Array.init m (fun _ -> Array.make ncols Rat.zero) in
  let b = Array.make m Rat.zero in
  let basis = Array.make m (-1) in
  let next_slack = ref n_struct and next_art = ref art_start in
  Array.iteri
    (fun i (coeffs, rhs, rel) ->
      Array.blit coeffs 0 a.(i) 0 n_struct;
      b.(i) <- rhs;
      (match rel with
       | Lp_problem.Le ->
         a.(i).(!next_slack) <- Rat.one;
         basis.(i) <- !next_slack;
         incr next_slack
       | Lp_problem.Ge ->
         a.(i).(!next_slack) <- Rat.minus_one;
         incr next_slack;
         a.(i).(!next_art) <- Rat.one;
         basis.(i) <- !next_art;
         incr next_art
       | Lp_problem.Eq ->
         a.(i).(!next_art) <- Rat.one;
         basis.(i) <- !next_art;
         incr next_art))
    rows;
  { a; b; basis; ncols; art_start; npivots = 0 }

let solve ?pivots:pivot_count problem =
  let vars = Lp_problem.variables problem in
  let t = build ~vars problem in
  let m = Array.length t.a in
  let n_struct = List.length vars in
  (* phase 1: maximize -sum(artificials) up to 0 *)
  let feasible =
    if t.art_start = t.ncols then true
    else begin
      let cost1 = Array.make t.ncols Rat.zero in
      for j = t.art_start to t.ncols - 1 do
        cost1.(j) <- Rat.minus_one
      done;
      (match run_phase t cost1 ~allowed:(fun _ -> true) with
       | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
       | `Optimal -> ());
      let _, z = reduced_costs t cost1 in
      if Rat.sign z < 0 then false
      else begin
        (* drive remaining artificials (at zero level) out of the basis *)
        for i = 0 to m - 1 do
          if t.basis.(i) >= t.art_start then begin
            let rec find j =
              if j >= t.art_start then None
              else if not (Rat.is_zero t.a.(i).(j)) then Some j
              else find (j + 1)
            in
            match find 0 with
            | Some col -> pivot t ~row:i ~col
            | None -> () (* redundant row; harmless to keep *)
          end
        done;
        true
      end
    end
  in
  let result =
  if not feasible then Infeasible
  else begin
    let direction = problem.Lp_problem.direction in
    let obj = match direction with
      | Lp_problem.Maximize -> problem.Lp_problem.objective
      | Lp_problem.Minimize -> Linexpr.neg problem.Lp_problem.objective
    in
    let cost2 = Array.make t.ncols Rat.zero in
    List.iteri (fun i v -> cost2.(i) <- Linexpr.coeff obj v) vars;
    let allowed j =
      j < t.art_start
      (* an artificial stuck in a degenerate basis row must stay at zero *)
    in
    match run_phase t cost2 ~allowed with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let _, z = reduced_costs t cost2 in
      let values = Array.make n_struct Rat.zero in
      for i = 0 to m - 1 do
        if t.basis.(i) < n_struct then values.(t.basis.(i)) <- t.b.(i)
      done;
      let assignment =
        List.mapi (fun i v -> (v, values.(i))) vars
        |> List.filter (fun (_, x) -> not (Rat.is_zero x))
      in
      let z = Rat.add z (Linexpr.constant obj) in
      let value = match direction with
        | Lp_problem.Maximize -> z
        | Lp_problem.Minimize -> Rat.neg z
      in
      Optimal { value; assignment }
  end
  in
  (match pivot_count with Some r -> r := !r + t.npivots | None -> ());
  result
