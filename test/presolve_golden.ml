(* Prints what presolve makes of piksrt, check_data and dhry on e32: for
   every constraint set and direction, the reduced problem in LP format,
   the stats, the postsolved witness and the lifted root prices, or the
   infeasibility reason. [dune runtest] diffs the output against
   [golden/presolve_e32.txt]; after a reviewed change, [dune promote]
   accepts the new output. *)

open Ipet_num
module P = Ipet_lp.Lp_problem
module Pre = Ipet_lp.Presolve
module I = Ipet_lp.Ilp
module Analysis = Ipet.Analysis
module Bspec = Ipet_suite.Bspec

let pp_stats (s : Pre.stats) =
  Printf.printf
    "stats: vars %d -> %d, constrs %d -> %d, rounds %d, substituted %d, \
     fixed %d\n"
    s.Pre.vars_before s.Pre.vars_after s.Pre.constrs_before
    s.Pre.constrs_after s.Pre.rounds s.Pre.substituted s.Pre.fixed

let show fp (p : P.t) =
  let emitted = Pre.emit fp p.P.direction p.P.objective in
  (match fst emitted with
   | Pre.Proved_infeasible { stats; reason } ->
     pp_stats stats;
     Printf.printf "infeasible: %s\n" reason
   | Pre.Reduced { problem; stats; _ } ->
     pp_stats stats;
     print_string (Ipet_lp.Lp_format.to_string problem));
  match I.solve_presolved emitted with
  | I.Optimal { value; assignment; stats } ->
    Printf.printf "value: %s\nwitness:" (Rat.to_string value);
    List.iter
      (fun (v, x) -> Printf.printf " %s=%s" v (Rat.to_string x))
      assignment;
    print_string "\nroot duals:";
    (match Lazy.force stats.I.root_duals with
     | None -> print_string " none"
     | Some d -> Array.iter (fun x -> Printf.printf " %s" (Rat.to_string x)) d);
    print_newline ()
  | I.Infeasible _ -> print_endline "solve: infeasible"
  | I.Unbounded _ -> print_endline "solve: unbounded"

let () =
  List.iter
    (fun name ->
      let spec = Bspec.spec (Ipet_suite.Suite.find name) in
      List.iteri
        (fun i (wcet, bcet) ->
          let fp = Pre.fixpoint ~lift:true wcet.P.constraints in
          Printf.printf "=== %s set %d max ===\n" name i;
          show fp wcet;
          Printf.printf "=== %s set %d min ===\n" name i;
          show fp bcet)
        (List.combine (Analysis.wcet_problems spec)
           (Analysis.bcet_problems spec)))
    [ "piksrt"; "check_data"; "dhry" ]
