open Ipet_num

type col = { rows : int array; vals : Rat.t array }

type t = {
  nrows : int;
  nstruct : int;
  art_start : int;
  ncols : int;
  cols : col array;
  rhs : Rat.t array;
  row_basis : int array;
  vars : string array;
}

let unit_col row v = { rows = [| row |]; vals = [| v |] }

let build ~vars problem =
  let vars_arr = Array.of_list vars in
  let nstruct = Array.length vars_arr in
  let var_index = Hashtbl.create (2 * nstruct + 1) in
  Array.iteri (fun i v -> Hashtbl.replace var_index v i) vars_arr;
  let constraints = Array.of_list problem.Lp_problem.constraints in
  let m = Array.length constraints in
  (* normalized rows: (sparse terms over struct columns, rhs >= 0, rel) *)
  let terms = Array.make m [] in
  let rhs = Array.make m Rat.zero in
  let rels = Array.make m Lp_problem.Le in
  Array.iteri
    (fun i (c : Lp_problem.constr) ->
      let ts =
        Linexpr.fold_terms
          (fun v k acc ->
            if Rat.is_zero k then acc
            else (Hashtbl.find var_index v, k) :: acc)
          c.Lp_problem.expr []
      in
      let r = Rat.neg (Linexpr.constant c.Lp_problem.expr) in
      if Rat.sign r < 0 then begin
        terms.(i) <- List.map (fun (j, k) -> (j, Rat.neg k)) ts;
        rhs.(i) <- Rat.neg r;
        rels.(i) <-
          (match c.rel with
           | Lp_problem.Le -> Lp_problem.Ge
           | Lp_problem.Ge -> Lp_problem.Le
           | Lp_problem.Eq -> Lp_problem.Eq)
      end
      else begin
        terms.(i) <- ts;
        rhs.(i) <- r;
        rels.(i) <- c.rel
      end)
    constraints;
  let n_slack =
    Array.fold_left
      (fun acc rel ->
        match rel with
        | Lp_problem.Le | Lp_problem.Ge -> acc + 1
        | Lp_problem.Eq -> acc)
      0 rels
  in
  let n_art =
    Array.fold_left
      (fun acc rel ->
        match rel with
        | Lp_problem.Ge | Lp_problem.Eq -> acc + 1
        | Lp_problem.Le -> acc)
      0 rels
  in
  let art_start = nstruct + n_slack in
  let ncols = art_start + n_art in
  (* bucket row terms into columns; rows processed in increasing order and
     prepended, so each bucket ends up in decreasing row order *)
  let buckets = Array.make nstruct [] in
  Array.iteri
    (fun i ts ->
      List.iter (fun (j, k) -> buckets.(j) <- (i, k) :: buckets.(j)) ts)
    terms;
  let cols = Array.make ncols { rows = [||]; vals = [||] } in
  for j = 0 to nstruct - 1 do
    let entries = buckets.(j) in
    let n = List.length entries in
    let rows = Array.make n 0 and vals = Array.make n Rat.zero in
    (* reversed fill restores increasing row order *)
    let k = ref (n - 1) in
    List.iter
      (fun (r, v) ->
        rows.(!k) <- r;
        vals.(!k) <- v;
        decr k)
      entries;
    cols.(j) <- { rows; vals }
  done;
  let row_basis = Array.make m (-1) in
  let next_slack = ref nstruct and next_art = ref art_start in
  Array.iteri
    (fun i rel ->
      match rel with
      | Lp_problem.Le ->
        cols.(!next_slack) <- unit_col i Rat.one;
        row_basis.(i) <- !next_slack;
        incr next_slack
      | Lp_problem.Ge ->
        cols.(!next_slack) <- unit_col i Rat.minus_one;
        incr next_slack;
        cols.(!next_art) <- unit_col i Rat.one;
        row_basis.(i) <- !next_art;
        incr next_art
      | Lp_problem.Eq ->
        cols.(!next_art) <- unit_col i Rat.one;
        row_basis.(i) <- !next_art;
        incr next_art)
    rels;
  { nrows = m; nstruct; art_start; ncols; cols; rhs; row_basis;
    vars = vars_arr }

let col_dot t y j =
  let c = t.cols.(j) in
  let acc = ref Rat.zero in
  for k = 0 to Array.length c.rows - 1 do
    let yv = Array.unsafe_get y (Array.unsafe_get c.rows k) in
    if not (Rat.is_zero yv) then
      acc := Rat.add !acc (Rat.mul yv (Array.unsafe_get c.vals k))
  done;
  !acc
