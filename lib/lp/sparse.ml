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
}

let unit_col row v = { rows = [| row |]; vals = [| v |] }

let build columns =
  let module C = Lp_problem.Columns in
  let m = C.rows columns and nstruct = C.count columns in
  (* normalized rows (rhs >= 0, the relation flipped with the sign), and
     the length of each structural column *)
  let flipped = Array.make m false in
  let rhs = Array.make m Rat.zero in
  let rels = Array.make m Lp_problem.Le in
  let n_slack = ref 0 and n_art = ref 0 and len = Array.make nstruct 0 in
  for i = 0 to m - 1 do
    let c = C.row columns i in
    let r = Rat.neg (Linexpr.constant c.Lp_problem.expr) in
    flipped.(i) <- Rat.sign r < 0;
    rhs.(i) <- Rat.abs r;
    rels.(i) <-
      (match c.Lp_problem.rel with
       | Lp_problem.Le when flipped.(i) -> Lp_problem.Ge
       | Lp_problem.Ge when flipped.(i) -> Lp_problem.Le
       | rel -> rel);
    if rels.(i) <> Lp_problem.Eq then incr n_slack;
    if rels.(i) <> Lp_problem.Le then incr n_art;
    C.fold_row (fun j _ () -> len.(j) <- len.(j) + 1) columns i ()
  done;
  let art_start = nstruct + !n_slack in
  let ncols = art_start + !n_art in
  (* fill each column row by row, so its rows come out increasing *)
  let cols =
    Array.init ncols (fun j ->
        let n = if j < nstruct then len.(j) else 0 in
        { rows = Array.make n 0; vals = Array.make n Rat.zero })
  in
  Array.fill len 0 nstruct 0;
  for i = 0 to m - 1 do
    C.fold_row
      (fun j a () ->
        let c = cols.(j) and k = len.(j) in
        c.rows.(k) <- i;
        c.vals.(k) <- (if flipped.(i) then Rat.neg a else a);
        len.(j) <- k + 1)
      columns i ()
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
  { nrows = m; nstruct; art_start; ncols; cols; rhs; row_basis }

let col_dot t y j =
  let c = t.cols.(j) in
  let acc = ref Rat.zero in
  for k = 0 to Array.length c.rows - 1 do
    let yv = Array.unsafe_get y (Array.unsafe_get c.rows k) in
    if not (Rat.is_zero yv) then
      acc := Rat.add !acc (Rat.mul yv (Array.unsafe_get c.vals k))
  done;
  !acc
