(* Per-benchmark integration tests: every Table I routine compiles,
   analyzes, and satisfies the paper's enclosure invariants:
     estimated.lo <= calculated.lo <= measured.lo
                 <= measured.hi <= calculated.hi <= estimated.hi *)

module E = Ipet_suite.Experiments
module Bspec = Ipet_suite.Bspec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rows : (string, E.row) Hashtbl.t = Hashtbl.create 16

let row name =
  match Hashtbl.find_opt rows name with
  | Some r -> r
  | None ->
    let r = E.run (Ipet_suite.Suite.find name) in
    Hashtbl.replace rows name r;
    r

let paper_benchmarks =
  List.map (fun (b : Bspec.t) -> b.Bspec.name) Ipet_suite.Suite.all

let assert_invariants name =
  let r = row name in
  let e = r.E.estimated and c = r.E.calculated and m = r.E.measured in
  check_bool (Printf.sprintf "%s: estimated.lo <= calculated.lo (%d <= %d)" name
                e.E.lo c.E.lo) true (e.E.lo <= c.E.lo);
  check_bool (Printf.sprintf "%s: calculated.hi <= estimated.hi (%d <= %d)" name
                c.E.hi e.E.hi) true (c.E.hi <= e.E.hi);
  check_bool (Printf.sprintf "%s: measured.lo within calculated (%d <= %d)" name
                c.E.lo m.E.lo) true (c.E.lo <= m.E.lo);
  check_bool (Printf.sprintf "%s: measured.hi within calculated (%d <= %d)" name
                m.E.hi c.E.hi) true (m.E.hi <= c.E.hi);
  check_bool (Printf.sprintf "%s: measured.lo <= measured.hi" name) true
    (m.E.lo <= m.E.hi);
  (* the Section VI first-LP-integral observation is the paper's, about its
     own benchmark set; extended benchmarks may legitimately branch
     (ludcmp's triangular-loop BCET ILP does, but only without presolve) *)
  if List.mem name paper_benchmarks then
    check_bool (name ^ ": first LP integral (paper section VI)") true
      r.E.all_first_lp_integral

let invariant_test name = (name, `Slow, fun () -> assert_invariants name)

(* path analysis must be exact (pessimism 0.00) for these, as in Table II *)
let assert_exact name =
  let r = row name in
  let plo, phi = E.pessimism ~estimated:r.E.estimated ~reference:r.E.calculated in
  check_bool (Printf.sprintf "%s: lower pessimism %.4f < 0.005" name plo) true
    (plo < 0.005);
  check_bool (Printf.sprintf "%s: upper pessimism %.4f < 0.005" name phi) true
    (phi < 0.005)

let exact_test name = (name ^ " path-exact", `Slow, fun () -> assert_exact name)

let test_dhry_pruning () =
  let r = row "dhry" in
  check_int "8 sets before pruning" 8 r.E.sets_total;
  check_int "5 pruned" 5 r.E.sets_pruned

let test_check_data_sets () =
  let r = row "check_data" in
  check_int "2 sets" 2 r.E.sets_total

let test_all_benchmarks_present () =
  check_int "13 benchmarks" 13 (List.length Ipet_suite.Suite.all);
  check_int "8 extended benchmarks" 8 (List.length Ipet_suite.Suite.extended);
  List.iter
    (fun (b : Bspec.t) ->
      check_bool (b.Bspec.name ^ " has worst data") true (b.Bspec.worst_data <> []);
      check_bool (b.Bspec.name ^ " has best data") true (b.Bspec.best_data <> []))
    (Ipet_suite.Suite.all @ Ipet_suite.Suite.extended)

let exact_names =
  (* Table II reports [0.00, 0.00] for these *)
  [ "check_data"; "piksrt"; "line"; "jpeg_fdct_islow"; "jpeg_idct_islow";
    "recon"; "fullsearch"; "whetstone"; "dhry"; "matgen"; "des" ]

(* In-process repeatability: the observable report of every benchmark —
   bound summary plus the full solver statistics — rendered twice in one
   process must be byte-identical; the second pass compiles through the
   {!Bspec} memo. *)

let render_suite mach =
  List.map
    (fun (b : Bspec.t) ->
      let r = Ipet.Analysis.analyze (Bspec.spec ~mach b) in
      (b.Bspec.name, Ipet.Report.bound_summary r ^ "\n" ^ Ipet.Report.lp_stats r))
    (Ipet_suite.Suite.all @ Ipet_suite.Suite.extended)

let check_same_renders ~what reference got =
  List.iter2
    (fun (name, ref_render) (name', render) ->
      Alcotest.(check string) (what ^ ": benchmark order " ^ name) name name';
      Alcotest.(check string) (what ^ ": report of " ^ name) ref_render render)
    reference got

let test_repeat_in_process () =
  List.iter
    (fun mach ->
      let first = render_suite mach in
      check_int "the whole 21-benchmark suite" 21 (List.length first);
      check_same_renders
        ~what:(Ipet_machine.Machine.id mach ^ " pass 2 vs pass 1")
        first (render_suite mach))
    Ipet_machine.Machine.all

(* The reported witness is the ILP's own optimum: pricing its block counts
   with the objective's per-block costs gives back the reported bound,
   worst costs for the WCET and best costs for the BCET (the default spec
   has no first-miss refinement, so every block costs a constant). *)
let test_witness_prices_to_bound () =
  List.iter
    (fun mach ->
      List.iter
        (fun (b : Bspec.t) ->
          let spec = Bspec.spec ~mach b in
          let r = Ipet.Analysis.analyze spec in
          let price cost (e : Ipet.Analysis.extreme) =
            List.fold_left
              (fun acc ((func, block), count) ->
                let costs = Ipet.Analysis.block_costs spec ~func in
                acc + (count * cost costs.(block)))
              0 e.Ipet.Analysis.counts
          in
          let what = b.Bspec.name ^ " " ^ Ipet_machine.Machine.id mach in
          check_int (what ^ ": witness prices to the WCET")
            r.Ipet.Analysis.wcet.Ipet.Analysis.cycles
            (price (fun c -> c.Ipet_machine.Cost.worst) r.Ipet.Analysis.wcet);
          check_int (what ^ ": witness prices to the BCET")
            r.Ipet.Analysis.bcet.Ipet.Analysis.cycles
            (price (fun c -> c.Ipet_machine.Cost.best) r.Ipet.Analysis.bcet))
        Ipet_suite.Suite.all)
    [ Ipet_machine.Machine.e32; Ipet_machine.Machine.m7 ]

(* Cost.mli's per-block promise on every suite run: each executed block's
   own simulated cycles lie within its count times its cost bounds, for
   the worst (cold) and best (warm) data sets on both machines *)
let test_blocks_within_cost_bounds () =
  List.iter
    (fun mach ->
      List.iter
        (fun (b : Bspec.t) ->
          let compiled = Bspec.compile b in
          let costs = Ipet.Analysis.block_costs (Bspec.spec ~mach b) in
          let check ~flush ~warm d =
            let m = E.simulate ~mach compiled b d ~flush ~warm in
            match Ipet_fuzz.Oracle.block_cost_finding ~costs m with
            | None -> ()
            | Some f ->
              Alcotest.failf "%s on %s: %s" b.Bspec.name
                (Ipet_machine.Machine.id mach) f.Ipet_fuzz.Oracle.detail
          in
          List.iter (check ~flush:true ~warm:false) b.Bspec.worst_data;
          List.iter (check ~flush:false ~warm:true) b.Bspec.best_data)
        (Ipet_suite.Suite.all @ Ipet_suite.Suite.extended))
    Ipet_machine.Machine.all

let suite =
  [ ("13 benchmarks present", `Quick, test_all_benchmarks_present) ]
  @ List.map invariant_test
      (List.map (fun (b : Bspec.t) -> b.Bspec.name)
         (Ipet_suite.Suite.all @ Ipet_suite.Suite.extended))
  @ List.map exact_test exact_names
  @ [ ("dhry 8->3 pruning", `Slow, test_dhry_pruning);
      ("check_data 2 sets", `Slow, test_check_data_sets);
      ("21 benchmarks render identically twice in one process", `Slow,
       test_repeat_in_process);
      ("witness prices to the bound on e32 and m7", `Slow,
       test_witness_prices_to_bound);
      ("every suite block stays within its cost bounds on e32 and m7", `Slow,
       test_blocks_within_cost_bounds) ]
