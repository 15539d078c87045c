(* cinderella — the command-line timing analyzer of the paper, re-created:
   reads an MC source file and an annotation file, prints the annotated
   listing with x_i labels, the derived constraints, and the estimated
   execution-time bound.

     cinderella analyze prog.mc -a prog.ann   (also accepts .s listings)
     cinderella listing prog.mc [-f func]
     cinderella cfg prog.mc -f func           (Graphviz to stdout)
     cinderella asm prog.mc                   (E32 assembly listing)
     cinderella sim prog.mc -r func --set g=1 --profile
     cinderella attribute prog.mc -r func --set g=1

   Every subcommand accepts --trace-out FILE (Chrome trace-event spans,
   Perfetto-loadable) and --metrics-out FILE (metrics + span totals as
   JSON). Diagnostics go through Ipet_obs.Diag: exit code 2 means the
   input was wrong, 1 means the run failed. *)

module P = Ipet_isa.Prog
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Icache = Ipet_machine.Icache
module Machine = Ipet_machine.Machine
module Obs = Ipet_obs.Obs
module Diag = Ipet_obs.Diag
module J = Ipet_obs.Json

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

(* Every output file the CLI writes goes through here, so an unwritable
   path is one input diagnostic (exit 2), not a stray Sys_error. *)
let write_output path content =
  match
    let oc = open_out path in
    output_string oc content;
    close_out oc
  with
  | () -> ()
  | exception Sys_error msg ->
    (* open errors name the path already; write and close errors do not *)
    let msg =
      if String.starts_with ~prefix:(path ^ ": ") msg then msg
      else path ^ ": " ^ msg
    in
    Diag.fail ~code:Diag.exit_input "cannot write %s" msg

let has_suffix ~suffix path =
  let np = String.length path and ns = String.length suffix in
  np >= ns && String.sub path (np - ns) ns = suffix

(* --- observability plumbing ------------------------------------------------ *)

(* Writing the sinks from [at_exit] means a run that dies through
   [Diag.fail] still flushes whatever spans and metrics it collected. *)
let setup_obs (trace_out, metrics_out) =
  if trace_out <> None || metrics_out <> None then begin
    Obs.enable ();
    at_exit (fun () ->
        Option.iter
          (fun path ->
            write_output path
              (Obs.Trace_event.to_string ~track_names:(Obs.track_names ())
                 (Obs.spans ())))
          trace_out;
        Option.iter
          (fun path ->
            write_output path
              (J.to_string
                 (Obs.Sink.metrics_json ~span_totals:(Obs.span_totals ())
                    Obs.metrics)
               ^ "\n"))
          metrics_out)
  end

(* MC source is compiled; an .s file is parsed as an E32 listing (the
   paper's cinderella likewise started from object code, not source) *)
let load_program path =
  Obs.span "frontend.load" ~args:[ ("path", path) ] (fun () ->
      if has_suffix ~suffix:".s" path then begin
        let text = read_file path in
        match Ipet_isa.Asm_parser.parse text with
        | prog -> (text, { Compile.prog; Compile.init_data = [] })
        | exception Ipet_isa.Asm_parser.Error (message, line) ->
          Diag.fail ~file:path ~line ~code:Diag.exit_input "%s" message
      end
      else begin
        let src = read_file path in
        match Frontend.compile_string src with
        | Ok compiled -> (src, compiled)
        | Error { Frontend.message; line } ->
          Diag.fail ~file:path ~line ~code:Diag.exit_input "%s" message
      end)

let load_annotations = function
  | None ->
    { Ipet.Constraint_parser.root = None; loop_bounds = []; functional = [] }
  | Some path ->
    (try Ipet.Constraint_parser.parse_annotation_text (read_file path) with
     | Ipet.Constraint_parser.Parse_error msg ->
       Diag.fail ~file:path ~code:Diag.exit_input "%s" msg)

let require_func prog name =
  match P.find_func_opt prog name with
  | Some f -> f
  | None -> Diag.fail ~code:Diag.exit_input "unknown function %s" name

let infer_bounds ~verbose source_path src =
  if has_suffix ~suffix:".s" source_path then
    Diag.fail ~code:Diag.exit_input
      "--auto-bounds needs MC source, not an assembly listing";
  let ast, _env = Frontend.parse_and_check src in
  let bounds = Ipet.Autobound.infer ast in
  if verbose then
    List.iter
      (fun (b : Ipet.Annotation.t) ->
        match b.Ipet.Annotation.header with
        | `Line l ->
          Printf.printf "inferred: loop %s line %d bound [%d, %d]\n"
            b.Ipet.Annotation.func l b.Ipet.Annotation.lo b.Ipet.Annotation.hi
        | `Block _ -> ())
      bounds;
  bounds

let run_analysis ?(certify = false) spec =
  match
    Obs.span "analysis.analyze" (fun () ->
        Ipet.Analysis.analyze ~certify spec)
  with
  | result -> result
  | exception Ipet.Analysis.Analysis_error msg ->
    Diag.fail ~code:Diag.exit_analysis "analysis error: %s" msg
  | exception Ipet.Functional.Resolution_error msg ->
    Diag.fail ~code:Diag.exit_input "constraint error: %s" msg
  | exception Ipet.Annotation.Bad_annotation msg ->
    Diag.fail ~code:Diag.exit_input "annotation error: %s" msg

(* Export certificates next to --dump-lp when asked, then refuse to exit
   cleanly if the trusted checker rejected either bound's proof. *)
let finish_certificates ?cert_out (result : Ipet.Analysis.result) =
  let sides =
    [ ("wcet", result.Ipet.Analysis.wcet_cert);
      ("bcet", result.Ipet.Analysis.bcet_cert) ]
  in
  Option.iter
    (fun path ->
      write_output path
        (J.to_string (Ipet.Report.certificates_json result) ^ "\n");
      Printf.printf "certificates written to %s\n" path)
    cert_out;
  List.iter
    (fun (side, c) ->
      match c with
      | Some (c : Ipet.Analysis.certificate) ->
        (match c.Ipet.Analysis.verdict with
         | Ipet_cert.Checker.Invalid errs ->
           Diag.fail ~code:Diag.exit_analysis
             "%s certificate rejected by the checker: %s" side
             (String.concat "; " errs)
         | Ipet_cert.Checker.Valid _ -> ())
      | None -> ())
    sides

(* --- the analysis input ------------------------------------------------- *)

(* What analyze, cfg and attribute read the same way ([input_term] applies
   the arguments up to [~presolve]): load the program and its annotations
   and build the analysis spec, or [None] when neither --root nor the
   annotations name a root. The cache flags override the machine's own
   fetch geometry field-wise. *)
let load_input source_path annot_path root_flag auto_bounds mach cache_size
    line_size miss_penalty ~presolve ~verbose =
  let src, compiled = load_program source_path in
  let annotations = load_annotations annot_path in
  let prog = compiled.Compile.prog in
  let spec root =
    ignore (require_func prog root);
    let d = mach.Machine.fetch in
    let cache =
      match
        Icache.check
          { Icache.size_bytes =
              Option.value ~default:d.Icache.size_bytes cache_size;
            line_bytes = Option.value ~default:d.Icache.line_bytes line_size;
            miss_penalty =
              Option.value ~default:d.Icache.miss_penalty miss_penalty }
      with
      | Ok cache -> cache
      | Error (field, msg) ->
        let flag =
          match field with
          | Icache.Size_bytes -> "--cache-size"
          | Icache.Line_bytes -> "--line-size"
          | Icache.Miss_penalty -> "--miss-penalty"
        in
        Diag.fail ~code:Diag.exit_input "%s: %s" flag msg
    in
    let inferred =
      if auto_bounds then infer_bounds ~verbose source_path src else []
    in
    Ipet.Analysis.spec ~mach ~cache ~presolve
      ~loop_bounds:(annotations.Ipet.Constraint_parser.loop_bounds @ inferred)
      ~functional:annotations.Ipet.Constraint_parser.functional ~root prog
  in
  ( src,
    compiled,
    Option.map spec
      (match root_flag with
       | Some r -> Some r
       | None -> annotations.Ipet.Constraint_parser.root) )

let require_spec = function
  | Some spec -> spec
  | None ->
    Diag.fail ~code:Diag.exit_input
      "no analysis root: pass --root or add a 'root' line to the annotations"

(* --- analyze ------------------------------------------------------------- *)

let analyze_cmd obs load_input verbose dump_lp sensitivity no_presolve
    lp_stats certify cert_out =
  setup_obs obs;
  let src, _, spec = load_input ~presolve:(not no_presolve) ~verbose in
  let spec = require_spec spec in
  let root = spec.Ipet.Analysis.root and prog = spec.Ipet.Analysis.prog in
  (match dump_lp with
   | Some path ->
     let dump kind problems =
       List.mapi
         (fun i problem ->
           Ipet_lp.Lp_format.to_string
             ~name:(Printf.sprintf "%s %s set %d" root kind i) problem)
         problems
     in
     write_output path
       (String.concat ""
          (dump "wcet" (Ipet.Analysis.wcet_problems spec)
           @ dump "bcet" (Ipet.Analysis.bcet_problems spec)));
     Printf.printf "ILPs written to %s\n" path
   | None -> ());
  print_string (Ipet.Report.annotated_source ~source:src prog ~func:root);
  if verbose then begin
    print_endline "\nstructural constraints:";
    print_string
      (Ipet.Report.constraints_listing (Ipet.Analysis.structural_constraints spec))
  end;
  let result = run_analysis ~certify:(certify || cert_out <> None) spec in
  if Obs.enabled () then begin
    Obs.set_gauge_int "analysis.wcet_cycles"
      result.Ipet.Analysis.wcet.Ipet.Analysis.cycles;
    Obs.set_gauge_int "analysis.bcet_cycles"
      result.Ipet.Analysis.bcet.Ipet.Analysis.cycles;
    Ipet.Report.record_lp_metrics Obs.metrics result
  end;
  print_newline ();
  print_string (Ipet.Report.bound_summary result);
  if lp_stats then begin
    print_newline ();
    print_string (Ipet.Report.lp_stats result)
  end;
  if sensitivity then begin
    print_endline "\nWCET sensitivity to loop bounds (hi reduced by 1):";
    List.iter
      (fun (row : Ipet.Analysis.sensitivity_row) ->
        let ann = row.Ipet.Analysis.annotation in
        let where = match ann.Ipet.Annotation.header with
          | `Line l -> Printf.sprintf "line %d" l
          | `Block b -> Printf.sprintf "block %d" b
        in
        Printf.printf "  %s %s [%d,%d]: -%d cycles\n" ann.Ipet.Annotation.func
          where ann.Ipet.Annotation.lo ann.Ipet.Annotation.hi
          (row.Ipet.Analysis.base_wcet - row.Ipet.Analysis.tightened_wcet))
      (Ipet.Analysis.wcet_sensitivity spec)
  end;
  finish_certificates ?cert_out result

(* --- listing / cfg / asm -------------------------------------------------- *)

let listing_cmd obs source_path func =
  setup_obs obs;
  let src, compiled = load_program source_path in
  let prog = compiled.Compile.prog in
  let funcs =
    match func with
    | Some f -> [ f ]
    | None -> Array.to_list (Array.map (fun (f : P.func) -> f.P.name) prog.P.funcs)
  in
  List.iter
    (fun f ->
      Printf.printf "--- %s\n" f;
      print_string (Ipet.Report.annotated_source ~source:src prog ~func:f))
    funcs

let cfg_cmd obs load_input func certify =
  setup_obs obs;
  let _, compiled, spec = load_input ~presolve:true ~verbose:false in
  let f = require_func compiled.Compile.prog func in
  let cfg = Ipet_cfg.Cfg.of_func f in
  let dom = Ipet_cfg.Dominators.compute cfg in
  let loops = Ipet_cfg.Loops.detect cfg dom in
  match spec with
  | None ->
    print_string (Ipet_cfg.Dot.cfg_to_dot ~highlight_loops:loops cfg)
  | Some spec ->
    (* with an analysis root available, annotate each node with its WCET
       witness count and per-block cost bounds, and fill the blocks on the
       worst-case path *)
    let result = run_analysis ~certify spec in
    let costs = Ipet.Analysis.block_costs spec ~func in
    let count b =
      match
        List.assoc_opt (func, b) result.Ipet.Analysis.wcet.Ipet.Analysis.counts
      with
      | Some n -> n
      | None -> 0
    in
    let block_info b =
      let lines =
        if b < Array.length costs then
          [ Printf.sprintf "c=[%d,%d]" costs.(b).Ipet_machine.Cost.best
              costs.(b).Ipet_machine.Cost.worst ]
        else []
      in
      Printf.sprintf "wcet x%d" (count b) :: lines
    in
    print_string
      (Ipet_cfg.Dot.cfg_to_dot ~highlight_loops:loops ~block_info
         ~hot:(fun b -> count b > 0)
         cfg);
    finish_certificates result

let asm_cmd obs source_path =
  setup_obs obs;
  let _, compiled = load_program source_path in
  Format.printf "%a@." P.pp compiled.Compile.prog

(* --- sim ------------------------------------------------------------------ *)

(* "name=3", "name[4]=-2" or "name=2.5" *)
let parse_set spec =
  match String.index_opt spec '=' with
  | None -> Error (`Msg (spec ^ ": expected name=value"))
  | Some eq ->
    let lhs = String.sub spec 0 eq in
    let rhs = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    let name, index =
      match String.index_opt lhs '[' with
      | Some lb when lhs.[String.length lhs - 1] = ']' ->
        let digits = String.sub lhs (lb + 1) (String.length lhs - lb - 2) in
        (String.sub lhs 0 lb, int_of_string_opt digits)
      | Some _ | None -> (lhs, Some 0)
    in
    (match (index, int_of_string_opt rhs) with
     | None, _ -> Error (`Msg (lhs ^ ": expected an integer index"))
     | Some index, Some i -> Ok (name, index, Ipet_isa.Value.Vint i)
     | Some index, None ->
       (match float_of_string_opt rhs with
        | Some f -> Ok (name, index, Ipet_isa.Value.Vfloat f)
        | None -> Error (`Msg (rhs ^ ": expected a number"))))

(* the declared element type of each global of an MC source, which the
   program compiled from; an assembly listing, which the MC parser
   rejects, declares none *)
let global_types src =
  match Ipet_lang.Parser.parse src with
  | ast ->
    List.map
      (fun (g : Ipet_lang.Ast.global) ->
        (g.Ipet_lang.Ast.gname, g.Ipet_lang.Ast.gtyp))
      ast.Ipet_lang.Ast.globals
  | exception (Ipet_lang.Lexer.Error _ | Ipet_lang.Parser.Error _) -> []

(* a value the program would read with the wrong type is an input error
   here, not a crash of the run; an int is a float global's exact value *)
let apply_sets m ~src sets =
  let types = if sets = [] then [] else global_types src in
  List.iter
    (fun spec ->
      match parse_set spec with
      | Ok (name, index, v) ->
        let v =
          match (List.assoc_opt name types, v) with
          | Some Ipet_lang.Ast.Tint, Ipet_isa.Value.Vfloat _ ->
            Diag.fail ~code:Diag.exit_input "--set %s: %s is an int global"
              spec name
          | Some Ipet_lang.Ast.Tfloat, Ipet_isa.Value.Vint i ->
            Ipet_isa.Value.Vfloat (float_of_int i)
          | _ -> v
        in
        (try Ipet_sim.Interp.write_global m name index v with
         | Ipet_sim.Interp.Runtime_error msg ->
           Diag.fail ~code:Diag.exit_input "%s" msg)
      | Error (`Msg msg) -> Diag.fail ~code:Diag.exit_input "--set %s" msg)
    sets

let run_sim m root arg_values =
  match
    Obs.span "sim.run" ~args:[ ("root", root) ] (fun () ->
        Ipet_sim.Interp.call m root arg_values)
  with
  | result -> result
  | exception Ipet_sim.Interp.Runtime_error msg ->
    Diag.fail ~code:Diag.exit_analysis "runtime error: %s" msg
  | exception Ipet_sim.Interp.Out_of_fuel ->
    Diag.fail ~code:Diag.exit_analysis
      "out of fuel: the program does not seem to terminate"

let record_sim_metrics m =
  if Obs.enabled () then begin
    Obs.set_gauge_int "sim.instructions" (Ipet_sim.Interp.instructions m);
    Obs.set_gauge_int "sim.cycles" (Ipet_sim.Interp.cycles m);
    Obs.set_gauge_int "sim.icache.hits" (Ipet_sim.Interp.cache_hits m);
    Obs.set_gauge_int "sim.icache.misses" (Ipet_sim.Interp.cache_misses m);
    Array.iteri
      (fun i (hits, misses) ->
        if hits + misses > 0 then begin
          let labels = [ ("set", string_of_int i) ] in
          Obs.set_gauge_int ~labels "sim.icache.set_hits" hits;
          Obs.set_gauge_int ~labels "sim.icache.set_misses" misses
        end)
      (Ipet_sim.Interp.icache_line_stats m)
  end

let sim_cmd obs source_path root args sets flush profile mach =
  setup_obs obs;
  let src, compiled = load_program source_path in
  let prog = compiled.Compile.prog in
  let m = Ipet_sim.Interp.create ~mach prog ~init:compiled.Compile.init_data in
  apply_sets m ~src sets;
  if flush then Ipet_sim.Interp.flush_cache m;
  let arg_values = List.map (fun i -> Ipet_isa.Value.Vint i) args in
  let result = run_sim m root arg_values in
  if profile then Format.printf "%a@." Ipet_sim.Interp.pp_profile m;
  record_sim_metrics m;
  (match result with
   | Some v -> Format.printf "result: %a@." Ipet_isa.Value.pp v
   | None -> print_endline "result: (void)");
  Printf.printf "cycles:       %d\n" (Ipet_sim.Interp.cycles m);
  Printf.printf "instructions: %d\n" (Ipet_sim.Interp.instructions m);
  Printf.printf "cache:        %d hits, %d misses\n"
    (Ipet_sim.Interp.cache_hits m) (Ipet_sim.Interp.cache_misses m);
  print_endline "hottest blocks:";
  Ipet_sim.Interp.block_counts m
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < 10)
  |> List.iter (fun ((func, block), count) ->
    Printf.printf "  %s B%d: %d\n" func block count)

(* --- attribute ------------------------------------------------------------ *)

(* Pessimism attribution: run the IPET analysis AND a simulation of the
   same program under the same cache configuration, then report per basic
   block how much of the estimate-vs-measurement gap it contributes:
   witness count x worst-case cost against measured count and self
   cycles. *)
let attribute_cmd obs load_input args sets flush certify =
  setup_obs obs;
  let src, compiled, spec = load_input ~presolve:true ~verbose:false in
  let spec = require_spec spec in
  let root = spec.Ipet.Analysis.root in
  let result = run_analysis ~certify spec in
  if Obs.enabled () then Ipet.Report.record_lp_metrics Obs.metrics result;
  let m =
    Ipet_sim.Interp.create ~mach:spec.Ipet.Analysis.mach
      ~cache:spec.Ipet.Analysis.cache spec.Ipet.Analysis.prog
      ~init:compiled.Compile.init_data
  in
  apply_sets m ~src sets;
  if flush then Ipet_sim.Interp.flush_cache m;
  let arg_values = List.map (fun i -> Ipet_isa.Value.Vint i) args in
  ignore (run_sim m root arg_values);
  record_sim_metrics m;
  let costs = Ipet.Analysis.block_costs spec in
  let wcet_cost func block =
    let arr = costs ~func in
    if block < Array.length arr then arr.(block).Ipet_machine.Cost.worst else 0
  in
  let rows =
    Ipet.Report.attribution
      ~wcet_counts:result.Ipet.Analysis.wcet.Ipet.Analysis.counts ~wcet_cost
      ~sim_counts:(Ipet_sim.Interp.block_counts m)
      ~sim_cycles:(Ipet_sim.Interp.block_cycles m)
  in
  print_string
    (Ipet.Report.pp_attribution
       ~wcet:result.Ipet.Analysis.wcet.Ipet.Analysis.cycles
       ~simulated:(Ipet_sim.Interp.cycles m) rows);
  finish_certificates result

(* --- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.mc")

let annot_arg =
  Arg.(value & opt (some file) None
       & info [ "a"; "annotations" ] ~docv:"FILE.ann"
           ~doc:"Annotation file (root, loop bounds, constraints).")

let root_arg =
  Arg.(value & opt (some string) None
       & info [ "r"; "root" ] ~docv:"FUNC" ~doc:"Function to analyze.")

let func_opt_arg =
  Arg.(value & opt (some string) None
       & info [ "f"; "function" ] ~docv:"FUNC" ~doc:"Restrict to one function.")

let func_req_arg =
  Arg.(required & opt (some string) None
       & info [ "f"; "function" ] ~docv:"FUNC" ~doc:"Function to dump.")

let mach_conv =
  let parse s =
    match Machine.of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Format.pp_print_string ppf (Machine.id m) in
  Arg.conv (parse, print)

let mach_arg =
  Arg.(value & opt mach_conv Machine.e32
       & info [ "mach" ] ~docv:"MACH"
           ~doc:"Machine model the costs and the simulator target: \
                 $(b,e32) (the paper's i960KB-style core, default) or \
                 $(b,m7) (an ARMv7-M-style core with wait-state flash \
                 behind a prefetch buffer).")

let cache_size_arg =
  Arg.(value & opt (some int) None
       & info [ "cache-size" ] ~docv:"BYTES"
           ~doc:"Instruction cache capacity (default: the machine's own).")

let line_size_arg =
  Arg.(value & opt (some int) None
       & info [ "line-size" ] ~docv:"BYTES"
           ~doc:"Cache line size (default: the machine's own).")

let miss_penalty_arg =
  Arg.(value & opt (some int) None
       & info [ "miss-penalty" ] ~docv:"CYCLES"
           ~doc:"Cache line fill penalty (default: the machine's own).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print derived constraints.")

let auto_bounds_arg =
  Arg.(value & flag
       & info [ "auto-bounds" ]
           ~doc:"Infer bounds for counted for-loops automatically.")

let dump_lp_arg =
  Arg.(value & opt (some string) None
       & info [ "dump-lp" ] ~docv:"FILE"
           ~doc:"Write the WCET and BCET ILPs in CPLEX LP format.")

let sensitivity_arg =
  Arg.(value & flag
       & info [ "sensitivity" ]
           ~doc:"Report how much each loop bound contributes to the WCET.")

let no_presolve_arg =
  Arg.(value & flag
       & info [ "no-presolve" ]
           ~doc:"Hand the ILPs to the solver without presolve reductions.")

let lp_stats_arg =
  Arg.(value & flag
       & info [ "lp-stats" ]
           ~doc:"Print detailed solver statistics (LP calls, branch-and-bound \
                 nodes, simplex pivots, presolve reductions) as metric lines.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the run's spans as a Chrome trace-event file \
                 (loadable in Perfetto).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the run's metrics and span totals as JSON.")

let obs_term =
  Term.(const (fun trace metrics -> (trace, metrics))
        $ trace_out_arg $ metrics_out_arg)

let certify_arg =
  Arg.(value & flag
       & info [ "certify" ]
           ~doc:"Emit an exact LP-duality certificate for each reported \
                 bound and validate it with the trusted checker; exit \
                 non-zero if a certificate is rejected.")

let cert_out_arg =
  Arg.(value & opt (some string) None
       & info [ "cert-out" ] ~docv:"FILE"
           ~doc:"Write the WCET/BCET certificates as JSON (implies \
                 $(b,--certify)).")

(* the analysis input, shared by analyze, cfg and attribute *)
let input_term =
  Term.(const load_input $ source_arg $ annot_arg $ root_arg
        $ auto_bounds_arg $ mach_arg $ cache_size_arg $ line_size_arg
        $ miss_penalty_arg)

let analyze_term =
  Term.(const analyze_cmd $ obs_term $ input_term $ verbose_arg
        $ dump_lp_arg $ sensitivity_arg $ no_presolve_arg $ lp_stats_arg
        $ certify_arg $ cert_out_arg)

let analyze =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Estimate the execution-time bound of a function (IPET).")
    analyze_term

let args_arg =
  Arg.(value & opt (list int) []
       & info [ "args" ] ~docv:"INTS" ~doc:"Integer arguments of the root call.")

let set_arg =
  Arg.(value & opt_all string []
       & info [ "set" ] ~docv:"NAME[=INDEX]=VALUE"
           ~doc:"Initialize a global before the run (repeatable).")

let flush_arg =
  Arg.(value & flag
       & info [ "cold" ] ~doc:"Flush the instruction cache before the run.")

let root_req_arg =
  Arg.(required & opt (some string) None
       & info [ "r"; "root" ] ~docv:"FUNC" ~doc:"Function to execute.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ] ~doc:"Print a per-block cycle profile of the run.")

let sim =
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Execute a function on the cycle-accurate simulator.")
    Term.(const sim_cmd $ obs_term $ source_arg $ root_req_arg $ args_arg
          $ set_arg $ flush_arg $ profile_arg $ mach_arg)

let attribute =
  Cmd.v
    (Cmd.info "attribute"
       ~doc:"Explain the gap between the WCET estimate and a simulated run: \
             per basic block, witness count x worst-case cost versus the \
             measured count and cycles, ranked by contribution.")
    Term.(const attribute_cmd $ obs_term $ input_term $ args_arg $ set_arg
          $ flush_arg $ certify_arg)

let listing =
  Cmd.v
    (Cmd.info "listing" ~doc:"Print the annotated source with x_i labels.")
    Term.(const listing_cmd $ obs_term $ source_arg $ func_opt_arg)

let cfg =
  Cmd.v
    (Cmd.info "cfg"
       ~doc:"Dump a function's CFG in Graphviz format. With an analysis \
             root (-r or an annotation file), nodes are annotated with \
             WCET witness counts and cost bounds, and worst-case-path \
             blocks are filled.")
    Term.(const cfg_cmd $ obs_term $ input_term $ func_req_arg $ certify_arg)

let asm =
  Cmd.v
    (Cmd.info "asm" ~doc:"Print the compiled E32 assembly.")
    Term.(const asm_cmd $ obs_term $ source_arg)

(* --- serve / query -------------------------------------------------------- *)

let serve_cmd obs socket cache_dir no_cache cache_cap timeout_ms access_log
    access_log_cap flight_cap flight_dump =
  setup_obs obs;
  let cache =
    if no_cache then None
    else Some (Ipet_serve.Cache.create ~dir:cache_dir ~cap_bytes:cache_cap)
  in
  let flight_dump =
    (* default next to the socket, so tmp-socket runs keep the dump
       contained; --flight-dump "" disables it *)
    match flight_dump with
    | Some "" -> None
    | Some path -> Some path
    | None -> Some (socket ^ ".flight.jsonl")
  in
  let config =
    { Ipet_serve.Server.socket_path = socket;
      pool = None;
      cache;
      default_timeout_ms = timeout_ms;
      max_request_bytes = 16 * 1024 * 1024;
      access_log;
      access_log_cap;
      flight_cap;
      flight_dump }
  in
  Printf.eprintf "cinderella %s serving on %s (cache: %s)\n%!"
    Ipet_serve.Version.version socket
    (match cache with
     | Some c -> Ipet_serve.Cache.dir c
     | None -> "disabled");
  Ipet_serve.Server.run config

(* a request line: {"v":1,"op":OP}, the trace id when given, then
   [fields] *)
let request ?trace ?(fields = []) op =
  J.to_string
    (J.Obj
       ([ ("v", J.Int Ipet_serve.Protocol.version); ("op", J.Str op) ]
        @ (match trace with Some id -> [ ("trace", J.Str id) ] | None -> [])
        @ fields))

(* send one request line; the daemon's response line *)
let exchange ~socket line =
  match Ipet_serve.Client.one_shot ~socket line with
  | exception Unix.Unix_error (e, _, _) ->
    Diag.fail ~code:Diag.exit_input "cannot reach server at %s: %s" socket
      (Unix.error_message e)
  | None ->
    Diag.fail ~code:Diag.exit_analysis
      "server closed the connection without replying"
  | Some response -> response

let query_request ?trace ~want_spans source_path annot_path root mach
    timeout_ms no_cache =
  match source_path with
  | None ->
    Diag.fail ~code:Diag.exit_input "query needs SOURCE.mc, --op or --raw"
  | Some path ->
    let source = read_file path in
    let lang = if has_suffix ~suffix:".s" path then "asm" else "mc" in
    let options =
      (if no_cache then [ ("use_cache", J.Bool false) ] else [])
      @ (if want_spans then [ ("trace_spans", J.Bool true) ] else [])
      @ (match timeout_ms with
         | Some ms -> [ ("timeout_ms", J.Int ms) ]
         | None -> [])
    in
    request ?trace "analyze"
      ~fields:
        ([ ("mach", J.Str (Machine.id mach));
           ("lang", J.Str lang); ("source", J.Str source) ]
         @ (match annot_path with
            | Some p -> [ ("annotations", J.Str (read_file p)) ]
            | None -> [])
         @ (match root with Some r -> [ ("root", J.Str r) ] | None -> [])
         @ (if options = [] then [] else [ ("options", J.Obj options) ]))

(* pull the request's span tree out of an analyze response and write it as
   a Perfetto-loadable trace-event file (all spans on one track: the
   daemon ran them on this request's track) *)
let write_query_trace ~trace path response =
  let spans =
    match Option.bind (J.member "trace_spans" response) J.to_list with
    | Some l -> List.filter_map Ipet_obs.Span.of_json l
    | None -> []
  in
  let track_names =
    match trace with Some id -> [ (0, "req:" ^ id) ] | None -> []
  in
  write_output path (Obs.Trace_event.to_string ~track_names spans);
  Printf.eprintf "trace written to %s (%d spans)\n%!" path (List.length spans)

let rec pp_pretty ?(indent = 0) j =
  match j with
  | J.Obj fields ->
    List.iter
      (fun (k, v) ->
        match v with
        | J.Obj _ | J.List _ ->
          Printf.printf "%*s%s:\n" indent "" k;
          pp_pretty ~indent:(indent + 2) v
        | _ -> Printf.printf "%*s%-16s %s\n" indent "" k (J.to_string v))
      fields
  | J.List items -> List.iter (fun v -> pp_pretty ~indent v) items
  | _ -> Printf.printf "%*s%s\n" indent "" (J.to_string j)

let pretty_response j =
  match Option.bind (J.member "op" j) J.to_str with
  | Some "metrics" ->
    (match Option.bind (J.member "prometheus" j) J.to_str with
     | Some text -> print_string text
     | None -> pp_pretty j)
  | Some "recent" ->
    (match Option.bind (J.member "events" j) J.to_list with
     | Some events ->
       Printf.printf "%6s  %-24s  %-8s  %9s  %s\n" "seq" "id" "op" "ms"
         "status";
       List.iter
         (fun e ->
           Printf.printf "%6d  %-24s  %-8s  %9.3f  %s\n"
             (Option.value ~default:0
                (Option.bind (J.member "seq" e) J.to_int))
             (Option.value ~default:"?"
                (Option.bind (J.member "id" e) J.to_str))
             (Option.value ~default:"?"
                (Option.bind (J.member "op" e) J.to_str))
             (Option.value ~default:0.0
                (Option.bind (J.member "latency_ms" e) J.to_float))
             (match Option.bind (J.member "error" e) J.to_str with
              | Some code -> "error:" ^ code
              | None -> "ok"))
         events
     | None -> pp_pretty j)
  | _ -> pp_pretty j

let query_cmd socket source_path annot_path root mach raw op timeout_ms
    no_cache pretty trace_id trace_out =
  let trace =
    match trace_id with
    | Some _ -> trace_id
    | None ->
      Option.map
        (fun _ -> Printf.sprintf "query-%d" (Unix.getpid ()))
        trace_out
  in
  let line =
    match (raw, op) with
    | Some s, _ -> s
    | None, Some (("hello" | "stats" | "shutdown" | "metrics" | "recent") as op)
      ->
      request ?trace op
    | None, Some op -> Diag.fail ~code:Diag.exit_input "unknown op %s" op
    | None, None ->
      query_request ?trace ~want_spans:(trace_out <> None) source_path
        annot_path root mach timeout_ms no_cache
  in
  let response = exchange ~socket line in
  let parsed = J.parse response in
  (match parsed with
   | Ok j when pretty -> pretty_response j
   | _ -> print_endline response);
  (match (parsed, trace_out) with
   | Ok j, Some path -> write_query_trace ~trace path j
   | _ -> ());
  let failure_code =
    match parsed with
    | Ok j ->
      (match J.member "ok" j with
       | Some (J.Bool true) -> None
       | _ ->
         (match
            Option.bind
              (Option.bind (J.member "error" j) (J.member "code"))
              J.to_str
          with
          | Some ("proto" | "input") -> Some Diag.exit_input
          | Some _ | None -> Some Diag.exit_analysis))
    | Error _ -> Some Diag.exit_analysis
  in
  Option.iter exit failure_code

(* --- top ------------------------------------------------------------------ *)

(* refreshing operator view: totals and cache state from the stats op,
   per-op latency quantiles from the daemon-side histograms in the
   metrics op *)
let top_cmd socket interval iters plain =
  let send op =
    match J.parse (exchange ~socket (request op)) with
    | Ok j -> j
    | Error msg ->
      Diag.fail ~code:Diag.exit_analysis "bad response from server: %s" msg
  in
  let prev = ref None in
  let latency_rows metrics =
    match
      Option.bind
        (Option.bind (J.member "metrics" metrics) (J.member "metrics"))
        J.to_list
    with
    | None -> []
    | Some items ->
      List.filter_map
        (fun m ->
          match Option.bind (J.member "name" m) J.to_str with
          | Some "serve.latency_seconds" ->
            let op =
              Option.value ~default:"?"
                (Option.bind
                   (Option.bind (J.member "labels" m) (J.member "op"))
                   J.to_str)
            in
            Some
              ( op,
                Option.value ~default:0
                  (Option.bind (J.member "count" m) J.to_int),
                Option.value ~default:0.0
                  (Option.bind (J.member "p50" m) J.to_float),
                Option.value ~default:0.0
                  (Option.bind (J.member "p99" m) J.to_float) )
          | _ -> None)
        items
  in
  let tick () =
    let stats = send "stats" in
    let metrics = send "metrics" in
    let now = Unix.gettimeofday () in
    let requests =
      Option.value ~default:0 (Option.bind (J.member "requests" stats) J.to_int)
    in
    let rate =
      match !prev with
      | Some (t0, r0) when now > t0 ->
        float_of_int (requests - r0) /. (now -. t0)
      | _ -> 0.0
    in
    prev := Some (now, requests);
    if not plain then print_string "\027[H\027[2J";
    Printf.printf "cinderella top — %s\n" socket;
    Printf.printf "requests %d  (%.1f req/s)  errors %d  cert rejects %d\n"
      requests rate
      (Option.value ~default:0 (Option.bind (J.member "errors" stats) J.to_int))
      (Option.value ~default:0
         (Option.bind (J.member "certs_rejected" stats) J.to_int));
    (match J.member "cache" stats with
     | Some (J.Obj _ as cache) ->
       let i name =
         Option.value ~default:0 (Option.bind (J.member name cache) J.to_int)
       in
       let hits = i "hits" and misses = i "misses" in
       let ratio =
         if hits + misses = 0 then 0.0
         else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
       in
       Printf.printf
         "cache    %d entries, %d bytes  hit %.1f%%  evicted %d bytes\n"
         (i "entries") (i "bytes") ratio (i "eviction_bytes")
     | _ -> print_endline "cache    disabled");
    Printf.printf "%-10s %8s %10s %10s\n" "op" "count" "p50 ms" "p99 ms";
    List.iter
      (fun (op, count, p50, p99) ->
        Printf.printf "%-10s %8d %10.3f %10.3f\n" op count (p50 *. 1000.)
          (p99 *. 1000.))
      (latency_rows metrics);
    flush stdout
  in
  let rec loop n =
    if iters = 0 || n < iters then begin
      tick ();
      if iters = 0 || n + 1 < iters then Unix.sleepf interval;
      loop (n + 1)
    end
  in
  loop 0

(* --- fuzz ---------------------------------------------------------------- *)

let fuzz_cmd obs seed iters no_shrink shrink_attempts quiet mach =
  setup_obs obs;
  let log line = if not quiet then Printf.eprintf "%s\n%!" line in
  let outcome =
    Ipet_fuzz.Driver.run ~log ~shrink:(not no_shrink) ~shrink_attempts ~mach
      ~seed ~iters ()
  in
  match outcome.Ipet_fuzz.Driver.report with
  | None ->
    Printf.printf "fuzz: %d/%d cases passed (seeds %d..%d)\n"
      outcome.Ipet_fuzz.Driver.passed outcome.Ipet_fuzz.Driver.iters_run seed
      (seed + iters - 1)
  | Some report ->
    Format.printf "%a@." Ipet_fuzz.Driver.pp_report report;
    exit Diag.exit_analysis

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"N"
           ~doc:"Base seed; case $(i,i) uses seed N+i, so a failing seed \
                 replays alone with $(b,--seed) N+i $(b,--iters) 1.")

let iters_arg =
  Arg.(value & opt int 100
       & info [ "iters" ] ~docv:"N" ~doc:"Number of random cases to run.")

let no_shrink_arg =
  Arg.(value & flag
       & info [ "no-shrink" ] ~doc:"Report the failing program unshrunk.")

let shrink_attempts_arg =
  Arg.(value & opt int 2000
       & info [ "shrink-attempts" ] ~docv:"N"
           ~doc:"Cap on oracle runs spent shrinking a failure.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")

let fuzz =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz the analyzer: random MC programs, \
             simulated-vs-estimated bound checks, constraint validation, \
             optimizer and presolve equivalence.")
    Term.(const fuzz_cmd $ obs_term $ seed_arg $ iters_arg $ no_shrink_arg
          $ shrink_attempts_arg $ quiet_arg $ mach_arg)

(* --- serve / query terms -------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt string "cinderella.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on.")

let cache_dir_arg =
  Arg.(value & opt string ".cinderella-cache"
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Directory for the persistent analysis cache.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ] ~doc:"Run without the persistent result cache.")

let cache_cap_arg =
  Arg.(value & opt int (64 * 1024 * 1024)
       & info [ "cache-cap" ] ~docv:"BYTES"
           ~doc:"Cache size cap; least-recently-used entries are evicted.")

let timeout_ms_arg =
  Arg.(value & opt (some int) None
       & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Per-request analysis deadline in milliseconds.")

let access_log_arg =
  Arg.(value & opt (some string) None
       & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one JSON line per request (timestamp, request id, \
                 op, outcome, latency); rotated once when the size cap is \
                 reached.")

let access_log_cap_arg =
  Arg.(value & opt int (8 * 1024 * 1024)
       & info [ "access-log-cap" ] ~docv:"BYTES"
           ~doc:"Access-log rotation threshold.")

let flight_cap_arg =
  Arg.(value & opt int 512
       & info [ "flight-cap" ] ~docv:"N"
           ~doc:"Flight-recorder ring capacity (most recent N requests).")

let flight_dump_arg =
  Arg.(value & opt (some string) None
       & info [ "flight-dump" ] ~docv:"FILE"
           ~doc:"Where the flight recorder is dumped (JSONL) on shutdown \
                 or crash. Default: SOCKET.flight.jsonl; an empty value \
                 disables the dump.")

let serve =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the analysis daemon: line-delimited JSON requests over a \
             unix-domain socket, with per-function incremental re-analysis \
             backed by a persistent content-addressed cache. Every request \
             is recorded in an in-memory flight recorder (see the recent \
             op and $(b,--flight-dump)) and timed into live latency \
             histograms (see the metrics op and $(b,cinderella top)).")
    Term.(const serve_cmd $ obs_term $ socket_arg $ cache_dir_arg
          $ no_cache_arg $ cache_cap_arg $ timeout_ms_arg $ access_log_arg
          $ access_log_cap_arg $ flight_cap_arg $ flight_dump_arg)

let query_source_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"SOURCE.mc")

let raw_arg =
  Arg.(value & opt (some string) None
       & info [ "raw" ] ~docv:"JSON"
           ~doc:"Send this exact request line instead of building one.")

let op_arg =
  Arg.(value & opt (some string) None
       & info [ "op" ] ~docv:"OP"
           ~doc:"Send a bare request: hello, stats, metrics, recent or \
                 shutdown.")

let pretty_arg =
  Arg.(value & flag
       & info [ "pretty" ]
           ~doc:"Render the response for humans instead of printing the raw \
                 JSON line (stats: aligned fields; metrics: Prometheus \
                 text; recent: a table).")

let query_trace_id_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"ID"
           ~doc:"Tag the request with this trace id; the daemon echoes it \
                 in the response and records it in the flight recorder and \
                 access log. Defaults to query-<pid> when $(b,--trace-out) \
                 is given. Ignored with $(b,--raw) (put a trace field in \
                 the raw JSON instead).")

let query_trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Tag the request with a trace id, ask the daemon for the \
                 request's span tree, and write it as a Chrome trace-event \
                 file (needs a daemon running with span tracing enabled).")

let query =
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running analysis daemon and print the \
             response line. Exit status follows the response: 0 on ok, \
             2 on protocol/input errors, 1 on analysis errors.")
    Term.(const query_cmd $ socket_arg $ query_source_arg $ annot_arg
          $ root_arg $ mach_arg $ raw_arg $ op_arg $ timeout_ms_arg
          $ no_cache_arg $ pretty_arg $ query_trace_id_arg
          $ query_trace_out_arg)

let interval_arg =
  Arg.(value & opt float 2.0
       & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")

let top_iters_arg =
  Arg.(value & opt int 0
       & info [ "iters" ] ~docv:"N"
           ~doc:"Stop after N refreshes (0: run until interrupted).")

let plain_arg =
  Arg.(value & flag
       & info [ "plain" ]
           ~doc:"Append refreshes instead of redrawing the screen (for \
                 logs and CI).")

let top =
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live daemon dashboard: request rate, error and \
             certificate-reject counts, cache occupancy and hit ratio, \
             and per-op p50/p99 latency from the daemon's own histograms.")
    Term.(const top_cmd $ socket_arg $ interval_arg $ top_iters_arg
          $ plain_arg)

let main =
  Cmd.group
    (Cmd.info "cinderella" ~version:Ipet_serve.Version.version
       ~doc:"Static execution-time analysis by implicit path enumeration.")
    [ analyze; listing; cfg; asm; sim; attribute; fuzz; serve; query; top ]

let () = exit (Cmd.eval main)
