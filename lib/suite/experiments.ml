module Interp = Ipet_sim.Interp
module Compile = Ipet_lang.Compile
module Analysis = Ipet.Analysis
module Cost = Ipet_machine.Cost

type interval = { lo : int; hi : int }

type row = {
  bench : string;
  lines : int;
  sets_total : int;
  sets_pruned : int;
  estimated : interval;
  calculated : interval;
  measured : interval;
  lp_calls : int;
  all_first_lp_integral : bool;
}

let pessimism ~estimated ~reference =
  let lo =
    if reference.lo = 0 then 0.0
    else float_of_int (reference.lo - estimated.lo) /. float_of_int reference.lo
  in
  let hi =
    if reference.hi = 0 then 0.0
    else float_of_int (estimated.hi - reference.hi) /. float_of_int reference.hi
  in
  (lo, hi)

let simulate ?mach ?cache ?dcache compiled (bench : Bspec.t)
    (data : Bspec.dataset) ~flush ~warm =
  let machine =
    Interp.create ?mach ?cache ?dcache compiled.Compile.prog
      ~init:compiled.Compile.init_data
  in
  if warm then begin
    (* warm the cache with one throwaway run, then restore the data *)
    data.Bspec.setup machine;
    ignore (Interp.call machine bench.Bspec.root data.Bspec.args);
    Interp.reset_stats machine;
    Interp.reset_memory machine ~init:compiled.Compile.init_data
  end;
  data.Bspec.setup machine;
  if flush then Interp.flush_cache machine;
  ignore (Interp.call machine bench.Bspec.root data.Bspec.args);
  machine

let calculated_cost spec counts ~select =
  let costs = Analysis.block_costs spec in
  List.fold_left
    (fun acc ((func, block), count) -> acc + (count * select (costs ~func).(block)))
    0 counts

let run ?mach ?cache ?dcache (bench : Bspec.t) =
  let compiled = Bspec.compile bench in
  let spec = Bspec.spec ?mach ?cache ?dcache bench in
  let result = Analysis.analyze spec in
  let runs data ~flush ~warm =
    List.map
      (fun d ->
        let m = simulate ?mach ?cache ?dcache compiled bench d ~flush ~warm in
        (Interp.block_counts m, Interp.cycles m))
      data
  in
  let worst_runs = runs bench.Bspec.worst_data ~flush:true ~warm:false in
  let best_runs = runs bench.Bspec.best_data ~flush:false ~warm:true in
  let max_list = List.fold_left max min_int in
  let min_list = List.fold_left min max_int in
  let calculated =
    { hi =
        max_list
          (List.map
             (fun (counts, _) ->
               calculated_cost spec counts ~select:(fun b -> b.Cost.worst))
             worst_runs);
      lo =
        min_list
          (List.map
             (fun (counts, _) ->
               calculated_cost spec counts ~select:(fun b -> b.Cost.best))
             best_runs) }
  in
  let measured =
    { hi = max_list (List.map snd worst_runs);
      lo = min_list (List.map snd best_runs) }
  in
  { bench = bench.Bspec.name;
    lines = Bspec.source_lines bench;
    sets_total = result.Analysis.wcet_stats.Analysis.sets_total;
    sets_pruned = result.Analysis.wcet_stats.Analysis.sets_pruned;
    estimated =
      { lo = result.Analysis.bcet.Analysis.cycles;
        hi = result.Analysis.wcet.Analysis.cycles };
    calculated;
    measured;
    lp_calls =
      result.Analysis.wcet_stats.Analysis.lp_calls
      + result.Analysis.bcet_stats.Analysis.lp_calls;
    all_first_lp_integral =
      result.Analysis.wcet_stats.Analysis.all_first_lp_integral
      && result.Analysis.bcet_stats.Analysis.all_first_lp_integral }

let run_all ?mach ?cache ?dcache () =
  List.map (run ?mach ?cache ?dcache) Suite.all

(* --- table rendering ------------------------------------------------------ *)

let pp_interval { lo; hi } = Printf.sprintf "[%d, %d]" lo hi

let render_against ~reference_label ~reference rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "  %-17s %-24s %-24s %s\n" "Function" "Estimated Bound"
       reference_label "Pessimism");
  List.iter
    (fun row ->
      let plo, phi = pessimism ~estimated:row.estimated ~reference:(reference row) in
      Buffer.add_string buf
        (Printf.sprintf "  %-17s %-24s %-24s [%.2f, %.2f]\n" row.bench
           (pp_interval row.estimated) (pp_interval (reference row)) plo phi))
    rows;
  Buffer.contents buf

let render_table2 rows =
  render_against ~reference_label:"Calculated Bound"
    ~reference:(fun r -> r.calculated) rows

let render_table3 rows =
  render_against ~reference_label:"Measured Bound"
    ~reference:(fun r -> r.measured) rows
