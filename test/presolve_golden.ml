(* Prints what presolve makes of piksrt, check_data and dhry: for every
   constraint set and direction, the reduced problem in LP format, the
   stats, the postsolved witness and the lifted root prices, or the
   infeasibility reason.

   Without an argument it covers e32 ([golden/presolve_e32.txt]). With
   [extra] it covers m7, and the first-miss WCET objective on e32, whose
   loop-entry edge terms replay more definitions into the objective
   ([golden/presolve_extra.txt]; on m7 no loop is resident, so that
   objective is the plain one).
   [dune runtest] diffs each output against its golden; after a reviewed
   change, [dune promote] accepts the new output. *)

open Ipet_num
module P = Ipet_lp.Lp_problem
module Pre = Ipet_lp.Presolve
module I = Ipet_lp.Ilp
module Analysis = Ipet.Analysis
module Bspec = Ipet_suite.Bspec
module Machine = Ipet_machine.Machine

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

(* every set of [spec] from one fixpoint: its maximization and, unless
   [max_only], its minimization; [label] tags each header *)
let sets ?(max_only = false) ~label name spec =
  List.iteri
    (fun i (wcet, bcet) ->
      let fp = Pre.fixpoint ~lift:true (P.Columns.make wcet.P.constraints) in
      Printf.printf "=== %s%s set %d max ===\n" name label i;
      show fp wcet;
      if not max_only then begin
        Printf.printf "=== %s%s set %d min ===\n" name label i;
        show fp bcet
      end)
    (List.combine (Analysis.wcet_problems spec) (Analysis.bcet_problems spec))

let () =
  let extra = Array.length Sys.argv > 1 && Sys.argv.(1) = "extra" in
  List.iter
    (fun name ->
      let b = Ipet_suite.Suite.find name in
      if not extra then sets ~label:"" name (Bspec.spec b)
      else begin
        sets ~label:" m7" name (Bspec.spec ~mach:Machine.m7 b);
        sets ~max_only:true ~label:" first-miss" name
          { (Bspec.spec b) with Analysis.first_miss_refinement = true }
      end)
    [ "piksrt"; "check_data"; "dhry" ]
