(* The trusted base: this module must stay independent of the simplex
   implementations (Revised/Dense/Presolve/Sparse) — it sees only the
   problem representation and exact rationals. Keep it that way. *)

open Ipet_num
open Ipet_lp

type verdict = Valid of { gap : Rat.t } | Invalid of string list

let gap_closed = function
  | Valid { gap } -> Rat.is_zero gap
  | Invalid _ -> false

let pp_verdict (cert : Certificate.t) fmt = function
  | Valid { gap } ->
    if Rat.is_zero gap then Format.fprintf fmt "valid, gap closed (optimal)"
    else
      Format.fprintf fmt "valid, gap %a; proved bound %a" Rat.pp gap Rat.pp
        cert.Certificate.dual_bound
  | Invalid errs ->
    Format.fprintf fmt "INVALID: %s" (String.concat "; " errs)

(* A constraint set, numbered once: each variable of its rows is a
   column, each row its columns and coefficients. One objective per
   direction is kept with its digest and its coefficient per column,
   keyed on the objective's physical identity: every part of a problem is
   immutable, so the same objective value has the same digest. *)
type row = { constr : Lp_problem.constr; cols : int array; coeffs : Rat.t array }

type objective = {
  expr : Linexpr.t;
  digest : string;
  obj : Rat.t array;  (* the coefficient of each column *)
  outside : (string * Rat.t) list;  (* terms on variables of no row *)
}

type view = {
  rows : row array;
  names : string array;
  columns : (string, int) Hashtbl.t;
  text : string;
  objectives : objective option array;  (* Maximize's, then Minimize's *)
}

let view constraints =
  let columns = Hashtbl.create 256 and names = ref [] in
  let column v =
    match Hashtbl.find_opt columns v with
    | Some j -> j
    | None ->
      let j = Hashtbl.length columns in
      Hashtbl.add columns v j;
      names := v :: !names;
      j
  in
  let row (constr : Lp_problem.constr) =
    let e = constr.Lp_problem.expr in
    let n = Linexpr.fold_terms (fun _ _ n -> n + 1) e 0 in
    let cols = Array.make n 0 and coeffs = Array.make n Rat.zero in
    ignore
      (Linexpr.fold_terms
         (fun v a k ->
           cols.(k) <- column v;
           coeffs.(k) <- a;
           k + 1)
         e 0);
    { constr; cols; coeffs }
  in
  let rows = Array.of_list (List.map row constraints) in
  { rows;
    names = Array.of_list (List.rev !names);
    columns;
    text = Certificate.rows_text constraints;
    objectives = [| None; None |] }

let objective view direction expr =
  let slot =
    match direction with Lp_problem.Maximize -> 0 | Lp_problem.Minimize -> 1
  in
  match view.objectives.(slot) with
  | Some o when o.expr == expr -> o
  | Some _ | None ->
    let obj = Array.make (Array.length view.names) Rat.zero in
    let outside =
      Linexpr.fold_terms
        (fun v a outside ->
          match Hashtbl.find_opt view.columns v with
          | Some j -> obj.(j) <- a; outside
          | None -> (v, a) :: outside)
        expr []
    in
    let o =
      { expr;
        digest = Certificate.digest_rows direction expr ~rows:view.text;
        obj;
        outside }
    in
    view.objectives.(slot) <- Some o;
    o

let digest view direction expr = (objective view direction expr).digest

let check_view view direction objective_expr (cert : Certificate.t) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  let maximize = direction = Lp_problem.Maximize in
  let o = objective view direction objective_expr in
  let rows = view.rows in
  let ncols = Array.length view.names in
  if cert.Certificate.direction <> direction then err "direction mismatch";
  if cert.Certificate.digest <> o.digest then
    err "problem digest mismatch: certificate is about a different problem";
  let m = Array.length rows in
  let duals = cert.Certificate.duals in
  if Array.length duals <> m then
    err "dual count %d does not match %d constraints" (Array.length duals) m
  else begin
    (* 1. dual signs: for Maximize, y >= 0 on Le rows, y <= 0 on Ge rows,
       free on Eq rows (Minimize flips the inequalities).
       2. coverage: Σᵢ yᵢ·aᵢᵥ must dominate the objective coefficient of
       every variable (variables are implicitly non-negative, so a
       dominated coefficient can only lower the objective). Only priced
       rows (yᵢ ≠ 0) add to a column; a variable of no row has left-hand
       side 0. The failures are sorted to name them in name order.
       3. the bound the duals imply: constraints read [expr rel 0], i.e.
       [a·x rel -b], so each row contributes yᵢ·(-bᵢ) *)
    let cover = Array.make ncols Rat.zero in
    let implied = ref (Linexpr.constant objective_expr) in
    Array.iteri
      (fun i { constr = c; cols; coeffs } ->
        let y = duals.(i) in
        let s = Rat.sign y in
        let bad =
          match c.Lp_problem.rel with
          | Lp_problem.Eq -> false
          | Lp_problem.Le -> if maximize then s < 0 else s > 0
          | Lp_problem.Ge -> if maximize then s > 0 else s < 0
        in
        if bad then
          err "dual %d (%s) has the wrong sign for a %s constraint" i
            c.Lp_problem.origin
            (match c.Lp_problem.rel with
             | Lp_problem.Le -> "<="
             | Lp_problem.Ge -> ">="
             | Lp_problem.Eq -> "=");
        if s <> 0 then begin
          Array.iteri
            (fun k j -> cover.(j) <- Rat.add cover.(j) (Rat.mul y coeffs.(k)))
            cols;
          implied :=
            Rat.sub !implied (Rat.mul y (Linexpr.constant c.Lp_problem.expr))
        end)
      rows;
    let covered lhs cv =
      if maximize then Rat.compare lhs cv >= 0 else Rat.compare lhs cv <= 0
    in
    let uncovered = ref [] in
    let report v lhs cv =
      if not (covered lhs cv) then uncovered := (v, lhs, cv) :: !uncovered
    in
    List.iter (fun (v, cv) -> report v Rat.zero cv) o.outside;
    Array.iteri (fun j lhs -> report view.names.(j) lhs o.obj.(j)) cover;
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !uncovered
    |> List.iter (fun (v, lhs, cv) ->
        err "variable %s not covered: duals give %s against objective %s" v
          (Rat.to_string lhs) (Rat.to_string cv));
    let implied = !implied in
    if not (Rat.equal implied cert.Certificate.dual_bound) then
      err "stated dual bound %s differs from the implied bound %s"
        (Rat.to_string cert.Certificate.dual_bound) (Rat.to_string implied)
  end;
  (* 4. the witness: an integral, non-negative assignment that satisfies
     every constraint and whose objective is exactly the reported bound.
     A repeated variable takes its last value; a variable of no row is
     kept aside, for the objective *)
  let x = Array.make ncols Rat.zero and seen = Bytes.make ncols '\000' in
  let outside = Hashtbl.create 1 in
  List.iter
    (fun (v, q) ->
      let repeated =
        match Hashtbl.find_opt view.columns v with
        | Some j ->
          x.(j) <- q;
          let r = Bytes.get seen j <> '\000' in
          Bytes.set seen j '\001';
          r
        | None ->
          let r = Hashtbl.mem outside v in
          Hashtbl.replace outside v q;
          r
      in
      if repeated then err "witness repeats variable %s" v;
      if Rat.sign q < 0 then err "witness has %s = %s < 0" v (Rat.to_string q);
      if not (Rat.is_integer q) then
        err "witness has non-integral %s = %s" v (Rat.to_string q))
    cert.Certificate.witness;
  let dot cols coeffs init =
    let acc = ref init in
    Array.iteri
      (fun k j ->
        let q = x.(j) in
        if not (Rat.is_zero q) then acc := Rat.add !acc (Rat.mul coeffs.(k) q))
      cols;
    !acc
  in
  Array.iteri
    (fun i { constr = c; cols; coeffs } ->
      let v = dot cols coeffs (Linexpr.constant c.Lp_problem.expr) in
      let holds =
        match c.Lp_problem.rel with
        | Lp_problem.Le -> Rat.sign v <= 0
        | Lp_problem.Ge -> Rat.sign v >= 0
        | Lp_problem.Eq -> Rat.is_zero v
      in
      if not holds then
        err "witness violates constraint %d (%s)" i c.Lp_problem.origin)
    rows;
  let wobj = ref (Linexpr.constant objective_expr) in
  let add a q = wobj := Rat.add !wobj (Rat.mul a q) in
  List.iter
    (fun (v, a) -> Option.iter (add a) (Hashtbl.find_opt outside v))
    o.outside;
  Array.iteri (fun j a -> if not (Rat.is_zero a) then add a x.(j)) o.obj;
  let wobj = !wobj in
  if not (Rat.equal wobj cert.Certificate.bound) then
    err "witness objective %s differs from the reported bound %s"
      (Rat.to_string wobj) (Rat.to_string cert.Certificate.bound);
  (* 5. the two sides must bracket the optimum the right way round *)
  let gap =
    if maximize then Rat.sub cert.Certificate.dual_bound cert.Certificate.bound
    else Rat.sub cert.Certificate.bound cert.Certificate.dual_bound
  in
  if Rat.sign gap < 0 then
    err "dual bound %s is beaten by the witness objective %s"
      (Rat.to_string cert.Certificate.dual_bound)
      (Rat.to_string cert.Certificate.bound);
  match !errs with [] -> Valid { gap } | errs -> Invalid (List.rev errs)

let check (p : Lp_problem.t) cert =
  check_view (view p.Lp_problem.constraints) p.Lp_problem.direction
    p.Lp_problem.objective cert
