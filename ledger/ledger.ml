(* The performance ledger of the IPET stack.

     ledger.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                [--trace-out FILE] [--out FILE]
     ledger.exe --smoke
     ledger.exe --compare BASE.jsonl NEW.jsonl

   A run sets a workload up (five times, reporting the median set-up
   time), then measures its operations for --seconds and prints every
   end-to-end metric by name with its unit. With --trace 1 it first runs a
   fixed traced pass that splits each operation into calls to each layer's
   public function, then measures untraced for half the time as the
   baseline of the tracing overhead, and prints the per-layer metrics
   instead. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
   any output check failed.

   With no --workload every workload runs, each in its own process, so its
   peak RSS and GC state are its own. --smoke runs every workload with tiny
   operation counts and every check. --compare reads two files of result
   lines and applies the bounds of BENCHMARK.json. *)

module J = Ipet_serve.Json
module W = Workloads
module Span = Ipet_obs.Span

(* --- metric definitions; BENCHMARK.json lists the same names ----------- *)

let end_to_end =
  [ ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms"); ("peak_rss_mb", "MiB");
    ("setup_s", "s") ]

let layers =
  [ "lang"; "machine"; "core"; "lp.presolve"; "lp.ilp"; "lp.witness"; "cert.emit";
    "cert.check"; "sim.decode"; "sim.run"; "serve.roundtrip"; "serve.handler" ]

(* counts of the traced pass that repeat exactly for one seed *)
let deterministic =
  [ ("core.lp_vars", "count"); ("core.lp_constrs", "count"); ("core.sets", "count");
    ("lp.presolve.removed_ratio", "ratio"); ("lp.ilp.pivots", "count");
    ("lp.ilp.lp_calls", "count"); ("lp.ilp.bnb_nodes", "count");
    ("lp.ilp.warm_hit_ratio", "ratio"); ("sim.instructions", "count");
    ("sim.icache_miss_ratio", "ratio"); ("serve.units_cached_ratio", "ratio");
    ("serve.units_solved", "count"); ("serve.certs_checked", "count");
    ("serve.certs_rejected", "count"); ("serve.cache_bytes", "bytes");
    ("serve.cache_evictions", "count") ]

let per_layer =
  List.concat_map
    (fun l ->
      [ (l ^ ".self_ms", "ms"); (l ^ ".total_ms", "ms"); (l ^ ".share", "ratio");
        (l ^ ".alloc_mw", "Mw") ])
    layers
  @ deterministic
  @ [ ("gc.major_collections", "count"); ("serve.transport_ms", "ms");
      (* every operation's own time, slow spells of a shared machine
         included: too unsteady there to carry a regression bound *)
      ("throughput_raw_per_s", "1/s"); ("latency_raw_p50_ms", "ms");
      ("latency_tail_ms", "ms"); ("serve.hit_p50_ms", "ms"); ("serve.hit_tail_ms", "ms");
      ("serve.edit_p50_ms", "ms"); ("serve.edit_tail_ms", "ms");
      ("sim.minstr_per_s", "Minstr/s"); ("trace.coverage", "ratio");
      ("trace.overhead", "ratio") ]

let units = end_to_end @ per_layer @ [ ("failed_frac", "ratio") ]

(* --- one workload in this process -------------------------------------- *)

type result = {
  workload : string;
  attempted : int;
  failures : string list;  (* one per failed operation *)
  latency : Stats.summary;
  metrics : (string * float) list;  (* everything measured, by name *)
}

let median_or_zero = function [] -> 0. | xs -> Stats.median xs

let ms_summary = function
  | [] -> (0., 0.)
  | xs -> let s = Stats.summarize xs in (s.Stats.p50, s.Stats.tail)

(* per-layer metrics of a traced pass; [baseline_ms] is the untraced
   operation median *)
let layer_metrics spans ~baseline_ms =
  (* one entry per operation: an "op" root plus the "replay" root that
     follows it, if any *)
  let group value =
    List.fold_left
      (fun acc ((root : Span.completed), by_name) ->
        match acc with
        | (op, dur, names) :: rest when root.Span.name <> "op" ->
          (op, dur +. float_of_int root.Span.dur_us, by_name @ names) :: rest
        | _ -> (root, float_of_int root.Span.dur_us, by_name) :: acc)
      []
      (Stats.per_root ~value spans)
    |> List.rev
  in
  let times = group Stats.duration_us and allocs = group Spans.minor_words in
  let nops = float_of_int (max 1 (List.length times)) in
  let wall_us = List.fold_left (fun a (_, d, _) -> a +. d) 0. times in
  let self_in name names =
    List.fold_left (fun a (n, v) -> if n = name then a +. v else a) 0. names
  in
  let layer l =
    let per_op = List.map (fun (_, _, names) -> self_in l names) times in
    let total = List.fold_left ( +. ) 0. per_op in
    let words = List.fold_left (fun a (_, _, names) -> a +. self_in l names) 0. allocs in
    [ (l ^ ".self_ms", median_or_zero per_op /. 1000.);
      (l ^ ".total_ms", total /. 1000.);
      (l ^ ".share", if wall_us = 0. then 0. else total /. wall_us);
      (l ^ ".alloc_mw", words /. nops /. 1e6) ]
  in
  let covered =
    List.fold_left (fun a (_, _, names) ->
        a +. List.fold_left (fun a l -> a +. self_in l names) 0. layers) 0. times
  in
  let durations name =
    List.filter_map
      (fun (s : Span.completed) ->
        if s.Span.name = name then Some (float_of_int s.Span.dur_us /. 1000.) else None)
      spans
  in
  let op_ms = List.map (fun ((op : Span.completed), _, _) -> float_of_int op.Span.dur_us /. 1000.) times in
  List.concat_map layer layers
  @ [ ("trace.coverage", if wall_us = 0. then 0. else covered /. wall_us);
      ("trace.overhead", if baseline_ms = 0. then 0. else fst (ms_summary op_ms) /. baseline_ms);
      ("serve.transport_ms",
       match durations "serve.roundtrip", durations "serve.handler" with
       | [], _ | _, [] -> 0.
       | rt, h -> Stats.median rt -. Stats.median h) ]

let measure (w : W.t) ~size ~seed ~seconds ~trace ~ops_limit ~trace_out =
  let setups = if trace || size = W.Smoke then 1 else 5 in
  let session = ref None and setup_times = ref [] in
  for _ = 1 to setups do
    Option.iter (fun (s : W.session) -> s.W.close ()) !session;
    session := None;
    let s, dt = W.timed (fun () -> w.W.setup size ~seed ~traced:trace) in
    setup_times := dt :: !setup_times;
    session := Some s
  done;
  let s = Option.get !session in
  Fun.protect ~finally:(fun () -> s.W.close ()) @@ fun () ->
  let traced =
    if not trace then None
    else begin
      let sp = Spans.create () in
      let gc0 = (Gc.quick_stat ()).Gc.major_collections in
      let outcomes = List.init s.W.traced_ops (s.W.traced sp) in
      let gc = (Gc.quick_stat ()).Gc.major_collections - gc0 in
      let counts = s.W.traced_counts () in
      Some (Spans.completed sp, outcomes, ("gc.major_collections", float_of_int gc) :: counts)
    end
  in
  let budget = if trace then seconds /. 2. else seconds in
  let deadline = Unix.gettimeofday () +. budget in
  let rec loop i acc =
    let more =
      match ops_limit with
      | Some k -> i < k
      | None -> i = 0 || Unix.gettimeofday () < deadline
    in
    if more then loop (i + 1) (s.W.op i :: acc) else List.rev acc
  in
  let untraced = loop 0 [] in
  let peak_rss = s.W.peak_rss_mb () in
  let ms kind =
    List.filter_map
      (fun (o : W.outcome) -> if kind o then Some (o.W.seconds *. 1000.) else None)
      untraced
  in
  let latency = Stats.summarize (ms (fun _ -> true)) in
  let busy = List.fold_left (fun a (o : W.outcome) -> a +. o.W.seconds) 0. untraced in
  (* The end-to-end figures replace each operation's time by the best time
     of its input over the run. On a shared machine load from elsewhere
     only adds time, and it comes in spells of seconds that can cover most
     of a run; the best of an input's repeats is its time on an unloaded
     machine, which is what a change to the code moves. Whole windows
     only, so every input counts as often as the mix has it. *)
  let best = Hashtbl.create 64 in
  List.iter
    (fun (o : W.outcome) ->
      let b = Option.value ~default:infinity (Hashtbl.find_opt best o.W.key) in
      Hashtbl.replace best o.W.key (Float.min b o.W.seconds))
    untraced;
  let whole =
    let n = List.length untraced / s.W.window * s.W.window in
    if n = 0 then untraced else List.filteri (fun i _ -> i < n) untraced
  in
  let best_ms = List.map (fun (o : W.outcome) -> Hashtbl.find best o.W.key *. 1000.) whole in
  let throughput =
    float_of_int (List.length whole) /. (List.fold_left ( +. ) 0. best_ms /. 1000.)
  in
  let instructions = List.fold_left (fun a (o : W.outcome) -> a + o.W.instructions) 0 untraced in
  let all = untraced @ (match traced with Some (_, o, _) -> o | None -> []) in
  let failures = List.filter_map (fun (o : W.outcome) -> o.W.failure) all in
  let attempted = List.length all in
  let hit_p50, hit_tail = ms_summary (ms (fun o -> o.W.kind = "hit")) in
  let edit_p50, edit_tail = ms_summary (ms (fun o -> o.W.kind = "edit")) in
  let layer =
    match traced with
    | None -> []
    | Some (spans, _, counts) ->
      (match trace_out with
       | Some path ->
         let oc = open_out path in
         output_string oc (Ipet_obs.Trace_event.to_string ~process_name:("ledger " ^ w.W.name) spans);
         close_out oc
       | None -> ());
      let measured =
        layer_metrics spans ~baseline_ms:latency.Stats.p50
        @ counts
        @ [ ("serve.hit_p50_ms", hit_p50); ("serve.hit_tail_ms", hit_tail);
            ("serve.edit_p50_ms", edit_p50); ("serve.edit_tail_ms", edit_tail);
            ("sim.minstr_per_s",
             if busy = 0. then 0. else float_of_int instructions /. busy /. 1e6) ]
      in
      List.filter_map
        (fun (name, _) ->
          if List.mem name [ "throughput_raw_per_s"; "latency_raw_p50_ms"; "latency_tail_ms" ]
          then None
          else Some (name, Option.value ~default:0. (List.assoc_opt name measured)))
        per_layer
  in
  { workload = w.W.name;
    attempted;
    failures;
    latency;
    metrics =
      [ ("throughput_per_s", throughput);
        ("latency_p50_ms", (Stats.summarize best_ms).Stats.p50);
        ("throughput_raw_per_s", float_of_int (List.length untraced) /. busy);
        ("latency_raw_p50_ms", latency.Stats.p50);
        ("latency_tail_ms", latency.Stats.tail);
        ("peak_rss_mb", peak_rss);
        ("setup_s", Stats.median !setup_times);
        ("failed_frac", float_of_int (List.length failures) /. float_of_int (max 1 attempted)) ]
      @ layer }

(* --- output ------------------------------------------------------------- *)

let metric_json names (r : result) =
  J.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           J.Obj
             [ ("value", J.Float (Option.value ~default:0. (List.assoc_opt name r.metrics)));
               ("unit", J.Str unit) ] ))
       names)

let line_json ~trace (r : result) =
  J.Obj
    [ ("correct", J.Bool (r.failures = []));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int (List.length r.failures));
      ("metrics", metric_json (if trace then per_layer else end_to_end) r) ]

let record_json ~seed ~seconds ~trace (r : result) =
  J.Obj
    [ ("workload", J.Str r.workload);
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("trace", J.Bool trace);
      ("host", Host.json ~seed);
      ("correct", J.Bool (r.failures = []));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int (List.length r.failures));
      ("failures", J.List (List.map (fun f -> J.Str f) (List.filteri (fun i _ -> i < 20) r.failures)));
      ("latency_samples", J.Int r.latency.Stats.n);
      ("latency_tail_percentile", J.Str r.latency.Stats.tail_label);
      ("metrics",
       metric_json (List.filter (fun (n, _) -> List.mem_assoc n r.metrics) units) r) ]

let print_result (r : result) =
  List.iter (fun f -> Printf.printf "%s: FAILED %s\n" r.workload f)
    (List.filteri (fun i _ -> i < 20) r.failures);
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name r.metrics with
      | None -> ()
      | Some v ->
        Printf.printf "%-12s %-28s %14.6g %s%s\n" r.workload name v unit
          (if name = "latency_tail_ms" then
             Printf.sprintf " (%s of %d)" r.latency.Stats.tail_label r.latency.Stats.n
           else ""))
    units

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let read_file path = String.concat "\n" (Host.read_lines path)

(* --- modes -------------------------------------------------------------- *)

let find_workload name =
  match List.find_opt (fun (w : W.t) -> w.W.name = name) W.all with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %s (expected %s or all)\n" name
      (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
    exit 2

let run_one name ~seed ~seconds ~trace ~trace_out ~out =
  let r =
    measure (find_workload name) ~size:W.Full ~seed ~seconds ~trace ~ops_limit:None ~trace_out
  in
  print_result r;
  Option.iter (fun path -> write_file path (J.to_string (record_json ~seed ~seconds ~trace r))) out;
  print_endline (J.to_string (line_json ~trace r));
  if r.failures <> [] then exit 1

(* every workload in a process of its own *)
let run_all ~seed ~seconds ~trace ~trace_out ~out =
  let dir = Printf.sprintf "%s/%d-all" W.tmp_root (Unix.getpid ()) in
  W.mkdir_p dir;
  let records =
    List.map
      (fun (w : W.t) ->
        let record = Filename.concat dir (w.W.name ^ ".json") in
        let args =
          [ "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--out"; record ]
          @ (match trace_out with
             | Some f -> [ "--trace-out"; Printf.sprintf "%s-%s.json" (Filename.remove_extension f) w.W.name ]
             | None -> [])
        in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args)) Unix.stdin Unix.stdout Unix.stderr
        in
        ignore (Unix.waitpid [] pid);
        match J.parse (read_file record) with
        | Ok j -> (w.W.name, Some j)
        | Error _ -> (w.W.name, None))
      W.all
  in
  W.remove_tree dir;
  (try Sys.rmdir W.tmp_root with Sys_error _ -> ());
  let int_field name j = Option.value ~default:0 (Option.bind (J.member name j) J.to_int) in
  let ok = List.for_all (fun (_, j) -> j <> None) records in
  let present = List.filter_map (fun (n, j) -> Option.map (fun j -> (n, j)) j) records in
  let failed = List.fold_left (fun a (_, j) -> a + int_field "failed" j) 0 present in
  let summary =
    J.Obj
      [ ("correct", J.Bool (ok && failed = 0));
        ("attempted", J.Int (List.fold_left (fun a (_, j) -> a + int_field "attempted" j) 0 present));
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.concat_map
               (fun (n, j) ->
                 match J.member "metrics" j with
                 | Some (J.Obj fields) ->
                   List.filter_map
                     (fun (name, v) ->
                       if List.mem_assoc name (if trace then per_layer else end_to_end)
                       then Some (n ^ "/" ^ name, v)
                       else None)
                     fields
                 | _ -> [])
               present) ) ]
  in
  Option.iter
    (fun path ->
      write_file path
        (J.to_string
           (J.Obj [ ("host", Host.json ~seed); ("workloads", J.List (List.map snd present)) ])))
    out;
  print_endline (J.to_string summary);
  if not (ok && failed = 0) then exit 1

(* BENCHMARK.json's metric names and units, in order *)
let benchmark_metrics key =
  match J.parse (read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    Option.bind (J.member key j) J.to_list
    |> Option.value ~default:[]
    |> List.map (fun m ->
      let field f = Option.bind (J.member f m) J.to_str |> Option.value ~default:"" in
      (field "name", m))

let smoke () =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("smoke: " ^ m); exit 1) fmt in
  let declared key =
    List.map
      (fun (name, m) ->
        (name, Option.value ~default:"" (Option.bind (J.member "unit" m) J.to_str)))
      (benchmark_metrics key)
  in
  if declared "end_to_end" <> end_to_end then fail "BENCHMARK.json end_to_end differs from the ledger's";
  if declared "per_layer" <> per_layer then fail "BENCHMARK.json per_layer differs from the ledger's";
  List.iter
    (fun (w : W.t) ->
      let pass () =
        let ops_limit = Some (if w.W.name = "serve-mixed" then 16 else 3) in
        measure w ~size:W.Smoke ~seed:1 ~seconds:0. ~trace:true ~ops_limit ~trace_out:None
      in
      let a = pass () and b = pass () in
      List.iter
        (fun (r : result) ->
          if r.failures <> [] then fail "%s: %s" w.W.name (String.concat "; " r.failures))
        [ a; b ];
      List.iter
        (fun (name, _) ->
          let va = List.assoc name a.metrics and vb = List.assoc name b.metrics in
          if va <> vb then fail "%s: %s differs between two traced passes (%g, %g)" w.W.name name va vb)
        deterministic;
      List.iter
        (fun j ->
          let s = J.to_string j in
          match J.parse s with
          | Ok j' when J.to_string j' = s -> ()
          | Ok _ | Error _ -> fail "%s: result JSON does not round-trip" w.W.name)
        [ line_json ~trace:true a; line_json ~trace:false a;
          record_json ~seed:1 ~seconds:0. ~trace:true a ];
      Printf.printf "smoke %-12s ok (%d operations)\n%!" w.W.name (a.attempted + b.attempted))
    W.all

(* Medians and spreads of two files of result lines, and the verdict of
   each end-to-end bound. *)
let compare_runs base next =
  let load path =
    List.filter_map
      (fun line ->
        match J.parse line with
        | Ok j -> (match J.member "metrics" j with Some (J.Obj m) -> Some m | _ -> None)
        | Error _ -> None)
      (Host.read_lines path)
  in
  let base = load base and next = load next in
  let values runs name =
    List.filter_map
      (fun m ->
        match Option.bind (List.assoc_opt name m) (J.member "value") with
        | Some (J.Float v) -> Some v
        | Some (J.Int v) -> Some (float_of_int v)
        | _ -> None)
      runs
  in
  let spread xs = if List.length xs < 2 then 0. else Stats.spread xs in
  let regressions =
    List.filter
      (fun (name, m) ->
        let a = values base name and b = values next name in
        if a = [] || b = [] then false
        else begin
          let num f = match J.member f m with Some (J.Float v) -> v | Some (J.Int v) -> float_of_int v | _ -> 0. in
          let better = if J.member "better" m = Some (J.Str "higher") then Stats.Higher else Stats.Lower in
          let bound = num "bound" in
          let bad = Stats.regressed ~better ~bound ~base:a ~next:b in
          Printf.printf "%-20s base %12.6g (spread %.3f, n=%d)  new %12.6g (spread %.3f, n=%d)  bound %.2f  %s\n"
            name (Stats.median a) (spread a) (List.length a) (Stats.median b) (spread b)
            (List.length b) bound (if bad then "WORSE" else "ok");
          bad
        end)
      (benchmark_metrics "end_to_end")
  in
  if regressions <> [] then exit 1

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let trace_out = ref None and out = ref None and smoke_mode = ref false in
  let daemon = ref None and compare = ref None in
  let socket = ref "" and base = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME  one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  report the per-layer metrics of a traced pass");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f; trace := 1),
       "FILE  also write the traced pass as a Chrome trace-event file");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  also write the full result with host data");
      ("--smoke", Arg.Set smoke_mode, " every workload with tiny operation counts");
      ("--compare",
       Arg.Tuple [ Arg.Set_string base; Arg.String (fun n -> compare := Some (!base, n)) ],
       "BASE NEW  compare two files of result lines against BENCHMARK.json's bounds");
      ("--daemon",
       Arg.Tuple [ Arg.Set_string socket; Arg.String (fun c -> daemon := Some (!socket, c)) ],
       "SOCKET CACHE  (internal) the serve-mixed daemon") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "ledger.exe [options]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  match !daemon, !compare with
  | Some (socket, cache), _ -> W.daemon ~socket ~cache
  | None, Some (a, b) -> compare_runs a b
  | None, None ->
    (* exit through at_exit, which stops the serve daemon *)
    let stop = Sys.Signal_handle (fun _ -> exit 130) in
    Sys.set_signal Sys.sigterm stop;
    Sys.set_signal Sys.sigint stop;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let trace = !trace = 1 and seed = !seed and seconds = !seconds in
    if !smoke_mode then smoke ()
    else if !workload = "all" then
      run_all ~seed ~seconds ~trace ~trace_out:!trace_out ~out:!out
    else run_one !workload ~seed ~seconds ~trace ~trace_out:!trace_out ~out:!out
