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

let check (p : Lp_problem.t) (cert : Certificate.t) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  let maximize = p.Lp_problem.direction = Lp_problem.Maximize in
  if cert.Certificate.direction <> p.Lp_problem.direction then
    err "direction mismatch";
  if cert.Certificate.digest <> Certificate.digest_problem p then
    err "problem digest mismatch: certificate is about a different problem";
  let constraints = Array.of_list p.Lp_problem.constraints in
  let m = Array.length constraints in
  let duals = cert.Certificate.duals in
  if Array.length duals <> m then
    err "dual count %d does not match %d constraints" (Array.length duals) m
  else begin
    (* 1. dual signs: for Maximize, y >= 0 on Le rows, y <= 0 on Ge rows,
       free on Eq rows (Minimize flips the inequalities) *)
    Array.iteri
      (fun i (c : Lp_problem.constr) ->
        let s = Rat.sign duals.(i) in
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
             | Lp_problem.Eq -> "="))
      constraints;
    (* 2. coverage: Σᵢ yᵢ·aᵢᵥ must dominate the objective coefficient of
       every variable (variables are implicitly non-negative, so a
       dominated coefficient can only lower the objective). Only a
       variable of the objective or of a priced row (yᵢ ≠ 0) can fail:
       any other one has left-hand side 0 against coefficient 0. So the
       test visits just those, and sorts only the ones it reports, to
       name them in name order. *)
    let cover = Hashtbl.create 256 in
    Array.iteri
      (fun i (c : Lp_problem.constr) ->
        let y = duals.(i) in
        if not (Rat.is_zero y) then
          Linexpr.fold_terms
            (fun v a () ->
              match Hashtbl.find_opt cover v with
              | Some lhs -> lhs := Rat.add !lhs (Rat.mul y a)
              | None -> Hashtbl.add cover v (ref (Rat.mul y a)))
            c.Lp_problem.expr ())
      constraints;
    Linexpr.fold_terms
      (fun v _ () ->
        if not (Hashtbl.mem cover v) then Hashtbl.add cover v (ref Rat.zero))
      p.Lp_problem.objective ();
    Hashtbl.fold
      (fun v lhs uncovered ->
        let lhs = !lhs and cv = Linexpr.coeff p.Lp_problem.objective v in
        let covered =
          if maximize then Rat.compare lhs cv >= 0
          else Rat.compare lhs cv <= 0
        in
        if covered then uncovered else (v, lhs, cv) :: uncovered)
      cover []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
    |> List.iter (fun (v, lhs, cv) ->
        err "variable %s not covered: duals give %s against objective %s" v
          (Rat.to_string lhs) (Rat.to_string cv));
    (* 3. the bound the duals imply: constraints read [expr rel 0], i.e.
       [a·x rel -b], so each row contributes yᵢ·(-bᵢ) *)
    let implied = ref (Linexpr.constant p.Lp_problem.objective) in
    Array.iteri
      (fun i (c : Lp_problem.constr) ->
        implied :=
          Rat.add !implied
            (Rat.mul duals.(i)
               (Rat.neg (Linexpr.constant c.Lp_problem.expr))))
      constraints;
    let implied = !implied in
    if not (Rat.equal implied cert.Certificate.dual_bound) then
      err "stated dual bound %s differs from the implied bound %s"
        (Rat.to_string cert.Certificate.dual_bound) (Rat.to_string implied)
  end;
  (* 4. the witness: an integral, non-negative assignment that satisfies
     every constraint and whose objective is exactly the reported bound *)
  let wtbl = Hashtbl.create 256 in
  List.iter
    (fun (v, x) ->
      if Hashtbl.mem wtbl v then err "witness repeats variable %s" v;
      Hashtbl.replace wtbl v x;
      if Rat.sign x < 0 then err "witness has %s = %s < 0" v (Rat.to_string x);
      if not (Rat.is_integer x) then
        err "witness has non-integral %s = %s" v (Rat.to_string x))
    cert.Certificate.witness;
  let env v = Option.value ~default:Rat.zero (Hashtbl.find_opt wtbl v) in
  List.iteri
    (fun i (c : Lp_problem.constr) ->
      if not (Lp_problem.satisfies env c) then
        err "witness violates constraint %d (%s)" i c.Lp_problem.origin)
    p.Lp_problem.constraints;
  let wobj = Linexpr.eval env p.Lp_problem.objective in
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
