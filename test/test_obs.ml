(* Observability subsystem tests: span-engine semantics under a
   deterministic clock, disabled-mode no-op behaviour, Chrome trace-event
   export validity, metrics-registry determinism, diagnostics rendering,
   and the simulator's exact cycle attribution. *)

module Obs = Ipet_obs.Obs
module Span = Ipet_obs.Span
module Metrics = Ipet_obs.Metrics
module Sink = Ipet_obs.Sink
module Trace_event = Ipet_obs.Trace_event
module Diag = Ipet_obs.Diag
module J = Ipet_obs.Json
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Interp = Ipet_sim.Interp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* a field of a parsed document that the test requires to be there *)
let get name j = Option.get (J.member name j)
let list j = Option.get (J.to_list j)
let str j = Option.get (J.to_str j)
let int j = Option.get (J.to_int j)

let parse text =
  match J.parse text with Ok j -> j | Error m -> Alcotest.failf "bad JSON: %s" m

(* --- span engine --------------------------------------------------------- *)

let test_span_nesting () =
  let t = ref 0.0 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  Span.enter engine "outer";
  t := 0.001;
  Span.enter engine ~args:[ ("k", "v") ] "inner";
  t := 0.003;
  Span.exit_ engine;
  t := 0.004;
  Span.exit_ engine;
  check_int "open spans" 0 (Span.depth engine);
  match Span.completed engine with
  | [ inner; outer ] ->
    (* completion order: children precede parents *)
    check_str "inner name" "inner" inner.Span.name;
    check_int "inner start" 1000 inner.Span.start_us;
    check_int "inner dur" 2000 inner.Span.dur_us;
    check_int "inner depth" 1 inner.Span.depth;
    check_bool "inner args" true (inner.Span.args = [ ("k", "v") ]);
    check_str "outer name" "outer" outer.Span.name;
    check_int "outer start" 0 outer.Span.start_us;
    check_int "outer dur" 4000 outer.Span.dur_us;
    check_int "outer depth" 0 outer.Span.depth
  | other -> Alcotest.failf "expected 2 spans, got %d" (List.length other)

let test_span_monotonic_clamp () =
  let t = ref 0.005 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  Span.enter engine "a";
  t := 0.002;
  (* the clock stepped backwards *)
  Span.exit_ engine;
  match Span.completed engine with
  | [ a ] ->
    check_int "clamped start" 0 a.Span.start_us;
    check_int "clamped dur" 0 a.Span.dur_us
  | _ -> Alcotest.fail "expected 1 span"

let test_span_totals () =
  let t = ref 0.0 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  let tick name us =
    Span.enter engine name;
    t := !t +. (float_of_int us /. 1e6);
    Span.exit_ engine
  in
  tick "b" 5;
  tick "a" 3;
  tick "b" 7;
  check_bool "totals sorted and summed" true
    (Span.totals (Span.completed engine) = [ ("a", (1, 3)); ("b", (2, 12)) ])

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  let ran = ref false in
  let result = Obs.span "invisible" (fun () -> ran := true; 42) in
  check_int "thunk result" 42 result;
  check_bool "thunk ran" true !ran;
  check_int "no spans recorded" 0 (List.length (Obs.spans ()))

let test_enabled_exception_safe () =
  Obs.enable ();
  Obs.reset ();
  (try Obs.span "boom" (fun () -> failwith "expected") with
   | Failure _ -> ());
  let names = List.map (fun c -> c.Span.name) (Obs.spans ()) in
  check_bool "span closed despite the exception" true (names = [ "boom" ]);
  Obs.disable ();
  Obs.reset ()

(* --- trace-event export -------------------------------------------------- *)

let test_trace_event_document () =
  let t = ref 0.0 in
  let engine = Span.create ~clock:(fun () -> !t) () in
  Span.enter engine "outer";
  t := 0.00001;
  Span.enter engine ~args:[ ("set", "0") ] "inner";
  t := 0.00002;
  Span.exit_ engine;
  t := 0.00005;
  Span.exit_ engine;
  let doc = Trace_event.to_string (Span.completed engine) in
  let json = parse doc in
  let events = list (get "traceEvents" json) in
  let xs =
    List.filter (fun e -> str (get "ph" e) = "X") events
  in
  check_int "one X event per span" 2 (List.length xs);
  (* sorted by start: outer (0) before inner (10) *)
  let names = List.map (fun e -> str (get "name" e)) xs in
  check_bool "sorted by start time" true (names = [ "outer"; "inner" ]);
  let ts = List.map (fun e -> int (get "ts" e)) xs in
  check_bool "timestamps non-decreasing" true (List.sort compare ts = ts);
  List.iter
    (fun e ->
      check_bool "dur non-negative" true (int (get "dur" e) >= 0))
    xs;
  (* metadata events identify the process for the viewer *)
  check_bool "has process_name metadata" true
    (List.exists
       (fun e ->
         str (get "ph" e) = "M" && str (get "name" e) = "process_name")
       events)

(* --- metrics ------------------------------------------------------------- *)

let test_metrics_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~labels:[ ("solver", "wcet") ] "lp.calls" in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  let c' = Metrics.counter r ~labels:[ ("solver", "wcet") ] "lp.calls" in
  Metrics.incr c';
  check_int "same cell through re-resolution" 6 (Metrics.counter_value c);
  Metrics.set_gauge_int r "vars" 10;
  Metrics.set_gauge_int r "vars" 7;
  let h = Metrics.histogram r "solve_s" in
  Metrics.observe h 2.0;
  Metrics.observe h 1.0;
  Metrics.observe h 4.0;
  (match Metrics.items r with
   | [ ("lp.calls", [ ("solver", "wcet") ], Metrics.Counter 6);
       ("solve_s", [], Metrics.Histogram { count = 3; sum = 7.0; min = 1.0; max = 4.0 });
       ("vars", [], Metrics.Gauge 7.0) ] -> ()
   | items -> Alcotest.failf "unexpected items (%d)" (List.length items));
  check_bool "kind mismatch rejected" true
    (try ignore (Metrics.counter r "vars"); false with Invalid_argument _ -> true)

let test_metrics_json_schema_stable () =
  (* two identical instrumented runs must produce byte-identical metrics
     documents *)
  let run () =
    let r = Metrics.create () in
    (* registration order deliberately unsorted *)
    Metrics.set_gauge_int r ~labels:[ ("solver", "wcet") ] "lp.calls" 3;
    Metrics.set_gauge_int r "sim.cycles" 123;
    Metrics.set_gauge_int r ~labels:[ ("solver", "bcet") ] "lp.calls" 2;
    let h = Metrics.histogram r "lp.solve_seconds" in
    Metrics.observe h 0.25;
    Sink.metrics_json ~span_totals:[ ("analysis.wcet", (1, 250)) ] r
  in
  let doc1 = run () and doc2 = run () in
  check_str "identical documents" (J.to_string doc1) (J.to_string doc2);
  let json = parse (J.to_string doc1) in
  check_int "version" 1 (int (get "version" json));
  let names =
    List.map (fun m -> str (get "name" m)) (list (get "metrics" json))
  in
  check_bool "metrics sorted by name" true (List.sort compare names = names);
  let spans = list (get "spans" json) in
  check_int "span totals present" 1 (List.length spans)

let test_histogram_quantiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "latency" in
  Alcotest.(check (float 0.0)) "empty histogram quantile is 0" 0.0
    (Metrics.quantile h 0.5);
  List.iter (fun v -> Metrics.observe h v) [ 3.0; 1.0; 2.0 ];
  let within tol expected actual =
    Float.abs (actual -. expected) <= tol *. expected
  in
  check_bool "p50 of {1,2,3} is ~2" true
    (within 0.05 2.0 (Metrics.quantile h 0.5));
  Alcotest.(check (float 0.0)) "extreme quantile clamps to the exact max" 3.0
    (Metrics.quantile h 0.99);
  check_bool "low quantile lands at the min" true
    (within 0.05 1.0 (Metrics.quantile h 0.01));
  (* uniform 1..100: the geometric buckets are ~4.4% wide, so every
     quantile must land within one bucket of the exact order statistic *)
  let u = Metrics.histogram r "uniform" in
  for i = 1 to 100 do
    Metrics.observe u (float_of_int i)
  done;
  List.iter
    (fun (q, expected) ->
      check_bool
        (Printf.sprintf "p%g of 1..100 is ~%g" (q *. 100.) expected)
        true
        (within 0.06 expected (Metrics.quantile u q)))
    [ (0.5, 50.0); (0.9, 90.0); (0.99, 99.0) ];
  Alcotest.(check (float 0.0)) "q=1 is the exact max" 100.0
    (Metrics.quantile u 1.0);
  check_bool "quantiles are monotone in q" true
    (Metrics.quantile u 0.5 <= Metrics.quantile u 0.9
     && Metrics.quantile u 0.9 <= Metrics.quantile u 0.99);
  (* sub-microsecond observations stay positive (latencies near the
     bottom of the bucket range must not collapse to zero) *)
  let tiny = Metrics.histogram r "tiny" in
  Metrics.observe tiny 1e-6;
  check_bool "tiny values keep a positive quantile" true
    (Metrics.quantile tiny 0.5 > 0.0)

(* --- Prometheus exposition ------------------------------------------------ *)

let test_prometheus_text () =
  let r = Metrics.create () in
  Metrics.set_gauge_int r "sim.cycles" 123;
  let c = Metrics.counter r ~labels:[ ("op", "an\"a\nlyze") ] "serve.requests" in
  Metrics.add c 7;
  let h = Metrics.histogram r "serve.latency_seconds" in
  Metrics.observe h 1.0;
  Metrics.observe h 1.0;
  let text = Sink.prometheus r in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  (* line-by-line: every line is a TYPE comment or a "name{labels} value"
     sample whose name uses only legal characters and whose value is a
     number *)
  let is_name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  List.iter
    (fun line ->
      if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          check_bool ("legal family name: " ^ name) true
            (String.for_all is_name_char name);
          check_bool ("known kind: " ^ kind) true
            (List.mem kind [ "counter"; "gauge"; "summary" ])
        | _ -> Alcotest.failf "malformed TYPE line: %s" line
      end
      else begin
        let space =
          match String.rindex_opt line ' ' with
          | Some i -> i
          | None -> Alcotest.failf "sample line without value: %s" line
        in
        let name_part = String.sub line 0 space in
        let value_part =
          String.sub line (space + 1) (String.length line - space - 1)
        in
        let bare_name =
          match String.index_opt name_part '{' with
          | Some i -> String.sub name_part 0 i
          | None -> name_part
        in
        check_bool ("legal metric name: " ^ bare_name) true
          (bare_name <> "" && String.for_all is_name_char bare_name);
        check_bool ("numeric value: " ^ value_part) true
          (Float.is_finite (float_of_string value_part))
      end)
    lines;
  let mem line = List.mem line lines in
  (* dotted names are sanitized; label values escape quote and newline *)
  check_bool "counter sample" true
    (mem "serve_requests{op=\"an\\\"a\\nlyze\"} 7");
  check_bool "gauge sample" true (mem "sim_cycles 123");
  check_bool "counter TYPE" true (mem "# TYPE serve_requests counter");
  check_bool "gauge TYPE" true (mem "# TYPE sim_cycles gauge");
  check_bool "summary TYPE" true
    (mem "# TYPE serve_latency_seconds summary");
  (* the summary renders quantile samples plus _sum/_count; both
     observations were 1.0, and clamping makes the quantiles exact *)
  List.iter
    (fun q ->
      check_bool ("quantile sample " ^ q) true
        (mem (Printf.sprintf "serve_latency_seconds{quantile=\"%s\"} 1" q)))
    [ "0.5"; "0.9"; "0.99" ];
  check_bool "sum sample" true (mem "serve_latency_seconds_sum 2");
  check_bool "count sample" true (mem "serve_latency_seconds_count 2");
  (* exactly one TYPE line per family, preceding its samples *)
  check_int "one TYPE line per family" 1
    (List.length
       (List.filter (fun l -> l = "# TYPE serve_latency_seconds summary")
          lines))

(* --- request tracks ------------------------------------------------------- *)

let test_request_tracks () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.span "outside" (fun () -> ());
      let r =
        Obs.with_track "req:a" (fun () ->
            Obs.span "inside-a" (fun () -> ());
            17)
      in
      check_int "with_track returns the thunk result" 17 r;
      Obs.with_track "req:b" (fun () -> Obs.span "inside-b" (fun () -> ()));
      Obs.with_track "req:a" (fun () -> Obs.span "inside-a2" (fun () -> ()));
      let names = Obs.track_names () in
      check_int "one track per distinct name" 2 (List.length names);
      List.iter
        (fun (tid, _) ->
          check_bool "track tids live above the main engine's tid" true (tid >= 1000))
        names;
      check_bool "both names registered" true
        (List.sort compare (List.map snd names) = [ "req:a"; "req:b" ]);
      (* a re-used trace id accumulates onto the same track *)
      let a_names =
        List.sort compare
          (List.map (fun s -> s.Span.name) (Obs.track_spans "req:a"))
      in
      check_bool "track accumulates its requests' spans" true
        (a_names = [ "inside-a"; "inside-a2" ]);
      (match Obs.track_spans "req:b" with
       | [ s ] ->
         check_str "other track has its own span" "inside-b" s.Span.name;
         check_bool "track span carries the track tid" true
           (List.mem_assoc s.Span.tid names)
       | other -> Alcotest.failf "expected 1 span, got %d" (List.length other));
      check_bool "unknown track is empty" true (Obs.track_spans "req:?" = []);
      (* track spans ride along in the global export, and the span recorded
         outside any track stayed off the request tracks *)
      let all = List.map (fun s -> s.Span.name) (Obs.spans ()) in
      check_bool "spans() includes track spans" true
        (List.mem "inside-a" all && List.mem "outside" all);
      check_bool "outside span is not on a track" true
        (not
           (List.mem "outside"
              (List.map (fun s -> s.Span.name)
                 (Obs.track_spans "req:a" @ Obs.track_spans "req:b")))));
  (* disabled: with_track is a transparent single-branch no-op *)
  check_int "disabled with_track runs the thunk" 5
    (Obs.with_track "req:x" (fun () -> 5));
  check_bool "disabled with_track allocates nothing" true
    (Obs.track_names () = [])

let test_trace_event_track_labels () =
  let t = ref 0.0 in
  let e = Span.create ~tid:1000 ~clock:(fun () -> !t) () in
  Span.enter e "req-span";
  t := 0.00001;
  Span.exit_ e;
  let doc =
    Trace_event.to_string ~track_names:[ (1000, "req:a") ] (Span.completed e)
  in
  let events = list (get "traceEvents" (parse doc)) in
  let thread_label =
    List.find_map
      (fun ev ->
        if str (get "ph" ev) = "M"
           && str (get "name" ev) = "thread_name"
           && int (get "tid" ev) = 1000
        then Some (str (get "name" (get "args" ev)))
        else None)
      events
  in
  check_bool "thread row is labelled with the track name" true
    (thread_label = Some "req:a")

(* --- diagnostics --------------------------------------------------------- *)

let test_diag_rendering () =
  let captured = ref [] in
  Diag.set_printer (fun line -> captured := line :: !captured);
  Diag.emit ~file:"prog.mc" ~line:12 Diag.Error "bad %s" "token";
  Diag.emit Diag.Warning "loose bound";
  Diag.emit ~file:"prog.ann" Diag.Note "see line %d" 4;
  Diag.set_printer prerr_endline;
  check_bool "rendered forms" true
    (List.rev !captured
     = [ "prog.mc:12: error: bad token";
         "cinderella: warning: loose bound";
         "prog.ann: note: see line 4" ]);
  check_int "input exit code" 2 Diag.exit_input;
  check_int "analysis exit code" 1 Diag.exit_analysis

(* --- simulator attribution ----------------------------------------------- *)

let profile_src = {|
int acc;

int leaf(int x) {
  int i;
  for (i = 0; i < 5; i = i + 1)
    x = x + i;
  return x;
}

int main() {
  int j;
  int s;
  s = 0;
  for (j = 0; j < 3; j = j + 1)
    s = s + leaf(j);
  acc = s;
  return s;
}
|}

let test_profile_attribution_exact () =
  let compiled = Frontend.compile_string_exn profile_src in
  let m =
    Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data
  in
  ignore (Interp.call m "main" []);
  (* attribution is exact: self cycles over all blocks sum to the total *)
  let attributed =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Interp.block_cycles m)
  in
  check_int "block self-cycles sum to the run total" (Interp.cycles m)
    attributed;
  (* callee exclusion: leaf's cycles are attributed to leaf's blocks, not to
     the main block making the calls *)
  let leaf_cycles =
    List.fold_left
      (fun acc ((f, _), c) -> if f = "leaf" then acc + c else acc)
      0 (Interp.block_cycles m)
  in
  check_bool "callee blocks carry their own cycles" true (leaf_cycles > 0);
  (* per-set i-cache tallies agree with the machine totals: every fetch is
     a hit or a miss of exactly one set *)
  let sets = Interp.icache_line_stats m in
  let hits, misses =
    Array.fold_left (fun (h, m) (sh, sm) -> (h + sh, m + sm)) (0, 0) sets
  in
  check_int "per-set hits sum" (Interp.cache_hits m) hits;
  check_int "per-set misses sum" (Interp.cache_misses m) misses;
  check_int "per-set hits and misses sum to the instructions"
    (Interp.instructions m) (hits + misses);
  (* reset_stats clears every derived view *)
  let main = Ipet_isa.Prog.find_func compiled.Compile.prog "main" in
  let call_block =
    List.find
      (fun b -> Ipet_isa.Prog.calls_of_block b <> [])
      (Array.to_list main.Ipet_isa.Prog.blocks)
  in
  let calls () =
    Interp.call_count m ~caller:"main" ~block:call_block.Ipet_isa.Prog.id
      ~occurrence:0
  in
  check_int "leaf is called three times" 3 (calls ());
  check_int "main is entered once" 1
    (Interp.ctx_entry_count m ~path:[] ~func:"main");
  Interp.reset_stats m;
  check_int "reset clears cycles" 0 (Interp.cycles m);
  check_int "reset clears instructions" 0 (Interp.instructions m);
  check_int "reset clears hits" 0 (Interp.cache_hits m);
  check_int "reset clears misses" 0 (Interp.cache_misses m);
  check_bool "reset clears block counts" true (Interp.block_counts m = []);
  check_bool "reset clears block cycles" true (Interp.block_cycles m = []);
  check_bool "reset clears the per-set tallies" true
    (Array.for_all (fun s -> s = (0, 0)) (Interp.icache_line_stats m));
  check_int "reset clears calls" 0 (calls ());
  check_int "reset clears entries" 0
    (Interp.ctx_entry_count m ~path:[] ~func:"main")

let test_attribution_report () =
  let rows =
    Ipet.Report.attribution
      ~wcet_counts:[ (("f", 0), 10); (("f", 1), 4) ]
      ~wcet_cost:(fun _ b -> if b = 0 then 7 else 3)
      ~sim_counts:[ (("f", 0), 8) ]
      ~sim_cycles:[ (("f", 0), 40) ]
  in
  match rows with
  | [ first; second ] ->
    check_str "largest gap first" "f" first.Ipet.Report.attr_func;
    check_int "block" 0 first.Ipet.Report.attr_block;
    check_int "wcet cycles" 70 first.Ipet.Report.wcet_cycles;
    check_int "gap" 30 first.Ipet.Report.gap;
    check_int "unexecuted block gap" 12 second.Ipet.Report.gap;
    check_int "unexecuted block sim count" 0 second.Ipet.Report.sim_count
  | _ -> Alcotest.fail "expected 2 rows"

(* --- the CLI's output files ---------------------------------------------- *)

let cinderella =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/cinderella.exe"

(* a scratch directory holding a suite program (default check_data) as
   p.mc/p.ann, as [bench export] writes it; returns the path and read
   functions for files in it *)
let cli_fixture ?(bench = "check_data") () =
  let b = Ipet_suite.Suite.find bench in
  let dir = Filename.temp_file "obs-cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  let write name text =
    let oc = open_out_bin (path name) in
    output_string oc text;
    close_out oc
  in
  let read name =
    let ic = open_in_bin (path name) in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  in
  write "p.mc" b.Ipet_suite.Bspec.source;
  write "p.ann" (Ipet_suite.Bspec.annotation_text b);
  (path, read)

(* run [cinderella args], stdout into [stdout_to] (default discarded),
   stderr into [stderr_to]; the exit status *)
let run_cinderella ?(stdout_to = "/dev/null") ~stderr_to args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let create path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = create stdout_to and err = create stderr_to in
  let pid =
    Unix.create_process cinderella (Array.of_list (cinderella :: args)) devnull
      out err
  in
  List.iter Unix.close [ devnull; out; err ];
  snd (Unix.waitpid [] pid)

(* [cinderella analyze p.mc -a p.ann extra] *)
let run_analyze path ~stderr_to extra =
  run_cinderella ~stderr_to
    ([ "analyze"; path "p.mc"; "-a"; path "p.ann" ] @ extra)

(* [cinderella analyze] on a suite program with --metrics-out and
   --trace-out, once per subset of the flags that add to the report: every
   run must exit 0 and leave two valid JSON documents. *)
let test_analyze_sinks_every_flag_combination () =
  let path, read = cli_fixture () in
  let flags =
    [ [ "--certify" ]; [ "--cert-out"; path "c.json" ]; [ "--lp-stats" ];
      [ "--sensitivity" ]; [ "--verbose" ]; [ "--no-presolve" ] ]
  in
  let rec subsets = function
    | [] -> [ [] ]
    | f :: rest ->
      let without = subsets rest in
      without @ List.map (fun s -> f @ s) without
  in
  List.iter
    (fun extra ->
      let what = String.concat " " ("analyze" :: extra) in
      List.iter
        (fun f -> if Sys.file_exists (path f) then Sys.remove (path f))
        [ "m.json"; "t.json" ];
      let status =
        run_analyze path ~stderr_to:"/dev/null"
          ([ "--metrics-out"; path "m.json"; "--trace-out"; path "t.json" ]
           @ extra)
      in
      check_bool (what ^ ": exit 0") true (status = Unix.WEXITED 0);
      List.iter
        (fun f ->
          match J.parse (read f) with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "%s: %s: %s" what f msg)
        [ "m.json"; "t.json" ])
    (subsets flags)

(* every output flag pointed into a missing directory: an input error
   (exit 2) whose only output on stderr is one diagnostic, never an
   uncaught exception *)
let test_unwritable_outputs () =
  let path, read = cli_fixture () in
  let target = path "missing/out" in
  List.iter
    (fun flag ->
      let status = run_analyze path ~stderr_to:(path "err") [ flag; target ] in
      check_bool (flag ^ ": exit 2") true (status = Unix.WEXITED 2);
      check_str (flag ^ ": stderr")
        (Printf.sprintf
           "cinderella: error: cannot write %s: No such file or directory\n"
           target)
        (read "err"))
    [ "--cert-out"; "--dump-lp"; "--metrics-out"; "--trace-out" ]

(* a fetch geometry the i-cache model cannot hold is an input error
   (exit 2) naming the flag, on every command that analyzes; before the
   one geometry check these divided by zero, or printed a bound for a
   cache the simulator refuses to build *)
let test_bad_geometry_flags () =
  let path, read = cli_fixture () in
  List.iter
    (fun (flags, named) ->
      List.iter
        (fun cmd ->
          let what = String.concat " " (cmd :: flags) in
          let status =
            run_cinderella ~stderr_to:(path "err")
              ([ cmd; path "p.mc"; "-a"; path "p.ann" ] @ flags)
          in
          check_bool (what ^ ": exit 2") true (status = Unix.WEXITED 2);
          let err = read "err" in
          let prefix = "cinderella: error: " ^ named ^ ": " in
          check_bool (what ^ ": names " ^ named) true
            (String.starts_with ~prefix err
             && String.index err '\n' = String.length err - 1))
        [ "analyze"; "attribute" ])
    [ ([ "--cache-size"; "0" ], "--cache-size");
      ([ "--line-size"; "0" ], "--line-size");
      ([ "--cache-size"; "64"; "--line-size"; "128" ], "--cache-size");
      ([ "--line-size"; "24" ], "--line-size");
      ([ "--miss-penalty=-1" ], "--miss-penalty");
      ([ "--miss-penalty"; "3074457345618258603" ], "--miss-penalty") ]

(* a [--set] whose index is not an integer is an input error (exit 2)
   naming the flag, on both commands that take one *)
let test_bad_set_flags () =
  let path, read = cli_fixture () in
  List.iter
    (fun set ->
      List.iter
        (fun (cmd, args) ->
          let what = String.concat " " [ cmd; "--set"; set ] in
          let status =
            run_cinderella ~stderr_to:(path "err")
              ((cmd :: path "p.mc" :: args) @ [ "--set"; set ])
          in
          check_bool (what ^ ": exit 2") true (status = Unix.WEXITED 2);
          let err = read "err" in
          check_bool (what ^ ": names --set") true
            (String.starts_with ~prefix:"cinderella: error: --set " err
             && String.index err '\n' = String.length err - 1))
        [ ("sim", [ "-r"; "check_data" ]);
          ("attribute", [ "-a"; path "p.ann" ]) ])
    [ "a[x]=1"; "a[]=1" ]

(* a float [--set] into an int global is an input error (exit 2) naming
   the flag on both commands, where the run would have crashed on
   reading it; an int still runs *)
let test_float_set_into_int () =
  let path, read = cli_fixture () in
  List.iter
    (fun (cmd, args) ->
      List.iter
        (fun set ->
          let what = String.concat " " [ cmd; "--set"; set ] in
          let status =
            run_cinderella ~stderr_to:(path "err")
              ((cmd :: path "p.mc" :: args) @ [ "--set"; set ])
          in
          check_bool (what ^ ": exit 2") true (status = Unix.WEXITED 2);
          check_str (what ^ ": names --set")
            ("cinderella: error: --set " ^ set ^ ": data is an int global\n")
            (read "err"))
        [ "data[3]=2.5"; "data[3]=1e400"; "data=nan" ];
      let status =
        run_cinderella ~stderr_to:(path "err")
          ((cmd :: path "p.mc" :: args) @ [ "--set"; "data[3]=-2" ])
      in
      check_bool (cmd ^ " --set data[3]=-2: exit 0") true
        (status = Unix.WEXITED 0))
    [ ("sim", [ "-r"; "check_data" ]); ("attribute", [ "-a"; path "p.ann" ]) ]

(* an assembly listing declares no element types, so a float [--set]
   into an int global runs; the program's int read of it is then a
   runtime error (exit 1), not a crash, on both commands. A global
   segment the simulator will not allocate is an input error (exit 2) *)
let test_mistyped_read_in_listing () =
  let path, read = cli_fixture () in
  let status =
    run_cinderella ~stdout_to:(path "p.s") ~stderr_to:(path "err")
      [ "asm"; path "p.mc" ]
  in
  check_bool "asm: exit 0" true (status = Unix.WEXITED 0);
  List.iter
    (fun (cmd, args) ->
      let status =
        run_cinderella ~stderr_to:(path "err")
          ((cmd :: path "p.s" :: args) @ [ "--set"; "data[3]=2.5" ])
      in
      check_bool (cmd ^ ": exit 1") true (status = Unix.WEXITED 1);
      check_str (cmd ^ ": runtime error")
        "cinderella: error: runtime error: Value.as_int: float word\n"
        (read "err"))
    [ ("sim", [ "-r"; "check_data" ]); ("attribute", [ "-a"; path "p.ann" ]) ];
  let oc = open_out (path "big.s") in
  output_string oc
    ".global d @ 0 (4611686018427387903 words)\n\
     f(0 params, 0 frame words):\nB0:\n  ret\n";
  close_out oc;
  let status =
    run_cinderella ~stderr_to:(path "err") [ "sim"; path "big.s"; "-r"; "f" ]
  in
  check_bool "unallocatable segment: exit 2" true (status = Unix.WEXITED 2);
  check_bool "names the global" true
    (Test_lp.contains ~needle:"global d at 0 (4611686018427387903 words)"
       (read "err"))

(* a constraint literal above 10^18 in the annotation file is an input
   error (exit 2) that names it, not a bound computed from a wrapped int *)
let test_oversized_literal () =
  let path, read = cli_fixture () in
  let oc = open_out_gen [ Open_append ] 0o644 (path "p.ann") in
  output_string oc "constr check_data x1 <= 9223372036854775808\n";
  close_out oc;
  let status = run_analyze path ~stderr_to:(path "err") [] in
  check_bool "exit 2" true (status = Unix.WEXITED 2);
  let err = read "err" in
  check_bool ("names the literal: " ^ err) true
    (Test_lp.contains ~needle:"literal 9223372036854775808 is larger than 10^18"
       err)

(* a recursive program, from MC source or a listing, is an analysis
   error (exit 1) naming the cycle; a listing that defines a function
   twice is an input error (exit 2) naming the line *)
let test_recursive_and_duplicate () =
  let path, read = cli_fixture () in
  let run what file text expected_status expected_err =
    Out_channel.with_open_bin (path file) (fun oc -> output_string oc text);
    let status =
      run_cinderella ~stderr_to:(path "err")
        [ "analyze"; path file; "--root"; "f" ]
    in
    check_bool (what ^ ": exit code") true (status = expected_status);
    check_str (what ^ ": stderr") expected_err (read "err")
  in
  let recursive =
    "cinderella: error: analysis error: recursive program: f -> f\n"
  in
  let f = "f(0 params, 0 frame words):\nB0:\n" in
  run "recursive MC" "r.mc" "int f(int x) { return f(x); }\n" (Unix.WEXITED 1)
    recursive;
  run "recursive listing" "r.s" (f ^ "  call f()\n  ret\n") (Unix.WEXITED 1)
    recursive;
  run "a function defined twice" "d.s" (f ^ "  ret\n" ^ f ^ "  ret\n")
    (Unix.WEXITED 2)
    (path "d.s" ^ ":4: error: redefinition of function f\n")

(* every subcommand's manual renders: cmdliner reports a malformed doc
   string on stderr but still exits 0, so the stderr check is the one
   that catches it *)
let test_subcommand_help () =
  let path, read = cli_fixture () in
  List.iter
    (fun cmd ->
      let status =
        run_cinderella ~stderr_to:(path "err") [ cmd; "--help=plain" ]
      in
      check_bool (cmd ^ " --help: exit 0") true (status = Unix.WEXITED 0);
      check_str (cmd ^ " --help: stderr") "" (read "err"))
    [ "analyze"; "asm"; "attribute"; "cfg"; "fuzz"; "listing"; "query";
      "serve"; "sim"; "top" ]

let suite =
  [ ("span nesting and ordering", `Quick, test_span_nesting);
    ("span monotonic clamp", `Quick, test_span_monotonic_clamp);
    ("span totals", `Quick, test_span_totals);
    ("disabled mode is a no-op", `Quick, test_disabled_noop);
    ("enabled span survives exceptions", `Quick, test_enabled_exception_safe);
    ("trace-event document", `Quick, test_trace_event_document);
    ("metrics registry", `Quick, test_metrics_registry);
    ("metrics JSON schema stable", `Quick, test_metrics_json_schema_stable);
    ("histogram quantiles", `Quick, test_histogram_quantiles);
    ("prometheus exposition", `Quick, test_prometheus_text);
    ("request tracks", `Quick, test_request_tracks);
    ("trace-event track labels", `Quick, test_trace_event_track_labels);
    ("diagnostics rendering", `Quick, test_diag_rendering);
    ("profiled simulator attribution", `Quick, test_profile_attribution_exact);
    ("attribution report", `Quick, test_attribution_report);
    ("analyze sinks under every reporting flag", `Slow,
     test_analyze_sinks_every_flag_combination);
    ("unwritable output paths are input errors", `Quick,
     test_unwritable_outputs);
    ("every subcommand's --help is clean", `Quick, test_subcommand_help);
    ("bad fetch geometry flags are input errors", `Quick,
     test_bad_geometry_flags);
    ("a non-integer --set index is an input error", `Quick,
     test_bad_set_flags);
    ("a float --set into an int global is an input error", `Quick,
     test_float_set_into_int);
    ("a mistyped read of a listing is a runtime error", `Quick,
     test_mistyped_read_in_listing);
    ("an oversized constraint literal is an input error", `Quick,
     test_oversized_literal);
    ("recursive or doubly defined programs are typed errors", `Quick,
     test_recursive_and_duplicate) ]
