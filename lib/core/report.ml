module P = Ipet_isa.Prog

let annotated_source ~source prog ~func =
  let f = P.find_func prog func in
  let labels = Hashtbl.create 16 in
  Array.iter
    (fun (b : P.block) ->
      if b.P.src_line > 0 then begin
        let cur = Option.value ~default:[] (Hashtbl.find_opt labels b.P.src_line) in
        Hashtbl.replace labels b.P.src_line (cur @ [ b.P.id ])
      end)
    f.P.blocks;
  let buf = Buffer.create 256 in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let tag =
        match Hashtbl.find_opt labels lineno with
        | Some blocks ->
          String.concat " " (List.map (Printf.sprintf "x%d") blocks)
        | None -> ""
      in
      Buffer.add_string buf (Printf.sprintf "%8s |%4d| %s\n" tag lineno line))
    lines;
  Buffer.contents buf

let constraints_listing constraints =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string buf (Format.asprintf "%a\n" Ipet_lp.Lp_problem.pp_constr c))
    constraints;
  Buffer.contents buf

let bound_summary (r : Analysis.result) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "estimated bound: [%d, %d] cycles\n" r.Analysis.bcet.Analysis.cycles
       r.Analysis.wcet.Analysis.cycles);
  Buffer.add_string buf "worst-case block counts:\n";
  List.iter
    (fun ((func, block), count) ->
      Buffer.add_string buf (Printf.sprintf "  %s B%d: %d\n" func block count))
    r.Analysis.wcet.Analysis.counts;
  if r.Analysis.wcet.Analysis.binding <> [] then begin
    Buffer.add_string buf "binding constraints at the WCET:\n";
    List.iter
      (fun origin -> Buffer.add_string buf (Printf.sprintf "  %s\n" origin))
      r.Analysis.wcet.Analysis.binding
  end;
  let s = r.Analysis.wcet_stats in
  Buffer.add_string buf
    (Printf.sprintf
       "constraint sets: %d total, %d pruned as null, %d solved (%d infeasible)\n"
       s.Analysis.sets_total s.Analysis.sets_pruned s.Analysis.sets_solved
       s.Analysis.sets_infeasible);
  let b = r.Analysis.bcet_stats in
  Buffer.add_string buf
    (Printf.sprintf "LP calls: %d; first relaxation integral in every ILP: %b\n"
       (s.Analysis.lp_calls + b.Analysis.lp_calls)
       (s.Analysis.all_first_lp_integral && b.Analysis.all_first_lp_integral));
  if s.Analysis.presolve_vars_before > s.Analysis.presolve_vars_after then
    Buffer.add_string buf
      (Printf.sprintf "presolve: %d -> %d variables, %d -> %d constraints\n"
         s.Analysis.presolve_vars_before s.Analysis.presolve_vars_after
         s.Analysis.presolve_constrs_before s.Analysis.presolve_constrs_after);
  (* only present under --certify, so the default output (and the golden
     tables built from it) is untouched *)
  let cert_line side (c : Analysis.certificate) =
    Buffer.add_string buf
      (Format.asprintf
         "%s certificate: %a; %d duals, %d witness vars (emit %.1f ms, %d pivots from %s; check %.2f ms)\n"
         side
         (Ipet_cert.Checker.pp_verdict c.Analysis.cert)
         c.Analysis.verdict
         (Array.length c.Analysis.cert.Ipet_cert.Certificate.duals)
         (List.length c.Analysis.cert.Ipet_cert.Certificate.witness)
         (1000. *. c.Analysis.emit_seconds)
         c.Analysis.emit_pivots
         (match c.Analysis.emit_source with
          | Ipet_cert.Certify.Lifted -> "lifted"
          | Ipet_cert.Certify.Cold -> "cold")
         (1000. *. c.Analysis.check_seconds))
  in
  Option.iter (cert_line "wcet") r.Analysis.wcet_cert;
  Option.iter (cert_line "bcet") r.Analysis.bcet_cert;
  Buffer.contents buf

module Metrics = Ipet_obs.Metrics
module Sink = Ipet_obs.Sink

let record_lp_metrics registry (r : Analysis.result) =
  let side solver (s : Analysis.solver_stats) =
    let labels = [ ("solver", solver) ] in
    let set name v = Metrics.set_gauge_int registry ~labels name v in
    set "lp.sets_total" s.Analysis.sets_total;
    set "lp.sets_pruned" s.Analysis.sets_pruned;
    set "lp.sets_solved" s.Analysis.sets_solved;
    set "lp.sets_infeasible" s.Analysis.sets_infeasible;
    set "lp.calls" s.Analysis.lp_calls;
    set "lp.bnb_nodes" s.Analysis.bnb_nodes;
    set "lp.simplex_pivots" s.Analysis.simplex_pivots;
    set "lp.refactorizations" s.Analysis.refactorizations;
    set "lp.first_integral" (if s.Analysis.all_first_lp_integral then 1 else 0);
    set "lp.presolve_vars_before" s.Analysis.presolve_vars_before;
    set "lp.presolve_vars_after" s.Analysis.presolve_vars_after;
    set "lp.presolve_constrs_before" s.Analysis.presolve_constrs_before;
    set "lp.presolve_constrs_after" s.Analysis.presolve_constrs_after;
    set "lp.presolve_rounds" s.Analysis.presolve_rounds
  in
  side "wcet" r.Analysis.wcet_stats;
  side "bcet" r.Analysis.bcet_stats;
  let cert_side solver (c : Analysis.certificate option) =
    match c with
    | None -> ()
    | Some c ->
      let labels = [ ("solver", solver) ] in
      let set name v = Metrics.set_gauge_int registry ~labels name v in
      set "cert.valid"
        (match c.Analysis.verdict with
         | Ipet_cert.Checker.Valid _ -> 1
         | Ipet_cert.Checker.Invalid _ -> 0);
      set "cert.gap_closed"
        (if Ipet_cert.Checker.gap_closed c.Analysis.verdict then 1 else 0);
      set "cert.emit_micros"
        (int_of_float (1e6 *. c.Analysis.emit_seconds));
      set "cert.emit_pivots" c.Analysis.emit_pivots;
      set "cert.check_micros"
        (int_of_float (1e6 *. c.Analysis.check_seconds))
  in
  cert_side "wcet" r.Analysis.wcet_cert;
  cert_side "bcet" r.Analysis.bcet_cert

let certificates_json (r : Analysis.result) =
  let module J = Ipet_obs.Json in
  let side name =
    Option.map (fun (c : Analysis.certificate) ->
        ( name,
          J.Obj
            [ ( "valid",
                J.Bool
                  (match c.Analysis.verdict with
                   | Ipet_cert.Checker.Valid _ -> true
                   | Ipet_cert.Checker.Invalid _ -> false) );
              ("gap_closed", J.Bool (Ipet_cert.Checker.gap_closed c.Analysis.verdict));
              ("certificate", Ipet_cert.Certificate.to_json c.Analysis.cert) ] ))
  in
  J.Obj
    (List.filter_map Fun.id
       [ side "wcet" r.Analysis.wcet_cert; side "bcet" r.Analysis.bcet_cert ])

let lp_stats (r : Analysis.result) =
  (* a fresh registry so repeated reports (wcet_sensitivity re-solves, the
     suite runner) never accumulate into the process-wide one *)
  let registry = Metrics.create () in
  record_lp_metrics registry r;
  Sink.human registry

type attribution_row = {
  attr_func : string;
  attr_block : int;
  wcet_count : int;
  wcet_cost : int;
  wcet_cycles : int;
  sim_count : int;
  sim_cycles : int;
  gap : int;
}

let attribution ~wcet_counts ~wcet_cost ~sim_counts ~sim_cycles =
  let tbl = Hashtbl.create 64 in
  let get key =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref (0, 0, 0) in
      Hashtbl.replace tbl key r;
      r
  in
  List.iter
    (fun (key, n) ->
      let r = get key in
      let _, sc, scy = !r in
      r := (n, sc, scy))
    wcet_counts;
  List.iter
    (fun (key, n) ->
      let r = get key in
      let wc, _, scy = !r in
      r := (wc, n, scy))
    sim_counts;
  List.iter
    (fun (key, n) ->
      let r = get key in
      let wc, sc, _ = !r in
      r := (wc, sc, n))
    sim_cycles;
  let rows =
    Hashtbl.fold
      (fun (func, block) r acc ->
        let wc, sc, scy = !r in
        let cost = wcet_cost func block in
        let wcy = wc * cost in
        { attr_func = func; attr_block = block; wcet_count = wc;
          wcet_cost = cost; wcet_cycles = wcy; sim_count = sc;
          sim_cycles = scy; gap = wcy - scy }
        :: acc)
      tbl []
  in
  List.sort
    (fun a b ->
      match compare b.gap a.gap with
      | 0 -> compare (a.attr_func, a.attr_block) (b.attr_func, b.attr_block)
      | c -> c)
    rows

let pp_attribution ~wcet ~simulated rows =
  let buf = Buffer.create 512 in
  let total_gap = wcet - simulated in
  Buffer.add_string buf
    (Printf.sprintf "WCET estimate: %d cycles; simulated: %d cycles; gap: %d\n"
       wcet simulated total_gap);
  Buffer.add_string buf
    (Printf.sprintf "%-16s %6s | %9s %6s %10s | %9s %10s | %10s %6s\n"
       "block" "" "wcet cnt" "cost" "cycles" "sim cnt" "cycles" "gap" "share");
  List.iter
    (fun r ->
      if r.wcet_cycles <> 0 || r.sim_cycles <> 0 then begin
        let share =
          if total_gap <= 0 then 0.0
          else 100.0 *. float_of_int r.gap /. float_of_int total_gap
        in
        Buffer.add_string buf
          (Printf.sprintf "%-16s B%-5d | %9d %6d %10d | %9d %10d | %10d %5.1f%%\n"
             r.attr_func r.attr_block r.wcet_count r.wcet_cost r.wcet_cycles
             r.sim_count r.sim_cycles r.gap share)
      end)
    rows;
  Buffer.contents buf
