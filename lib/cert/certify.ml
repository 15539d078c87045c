open Ipet_num
open Ipet_lp

type source = Lifted | Cold

type emitted = { cert : Certificate.t; pivots : int; source : source }

(* what multipliers on [problem]'s constraints prove: the objective's
   constant plus [Σ yᵢ·(-constantᵢ)] *)
let implied_bound (problem : Lp_problem.t) duals =
  List.fold_left
    (fun (acc, i) (c : Lp_problem.constr) ->
      ( Rat.add acc
          (Rat.mul duals.(i) (Rat.neg (Linexpr.constant c.Lp_problem.expr))),
        i + 1 ))
    (Linexpr.constant problem.Lp_problem.objective, 0)
    problem.Lp_problem.constraints
  |> fst

let emit ?root_duals ?view (problem : Lp_problem.t) ~witness ~bound =
  let package duals ~dual_bound ~pivots ~source =
    { cert =
        { Certificate.direction = problem.Lp_problem.direction;
          bound;
          dual_bound;
          duals;
          witness = Certificate.witness_of_assignment witness;
          digest =
            (match view with
             | Some v ->
               Checker.digest v problem.Lp_problem.direction
                 problem.Lp_problem.objective
             | None -> Certificate.digest_problem problem) };
      pivots;
      source }
  in
  let proves_bound duals =
    Array.length duals = Lp_problem.num_constraints problem
    && Rat.equal (implied_bound problem duals) bound
  in
  match root_duals with
  | Some duals when proves_bound duals ->
    Ok (package duals ~dual_bound:bound ~pivots:0 ~source:Lifted)
  | Some _ | None ->
    let pivots = ref 0 in
    (match Simplex.solve ~pivots problem with
     | Simplex.Infeasible -> Error "LP relaxation infeasible"
     | Simplex.Unbounded -> Error "LP relaxation unbounded"
     | Simplex.Optimal { duals; _ } ->
       Ok
         (package duals ~dual_bound:(implied_bound problem duals)
            ~pivots:!pivots ~source:Cold))

let certify problem ~witness ~bound =
  Result.map (fun e -> e.cert) (emit problem ~witness ~bound)
