(* The four ledger workloads. Each is a closed loop driven by one process
   at --jobs 1: the next operation starts when the previous one returned.
   A workload's inputs are a pure function of the seed; its operations are
   checked against references the code under measurement does not
   produce (the committed golden tables, the trusted certificate checker,
   the first response for a program version). *)

module P = Ipet_isa.Prog
module J = Ipet_serve.Json
module Rng = Ipet_fuzz.Rng
module Gen = Ipet_fuzz.Gen
module Bspec = Ipet_suite.Bspec
module Suite = Ipet_suite.Suite
module Analysis = Ipet.Analysis
module Annotation = Ipet.Annotation
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Machine = Ipet_machine.Machine
module Interp = Ipet_sim.Interp
module Checker = Ipet_cert.Checker

type size = Full | Smoke

type outcome = {
  kind : string;  (* "analysis", "hit", "edit" or "run" *)
  key : string;  (* the input: operations with one key repeat the same work *)
  seconds : float;  (* the operation alone; checks are not timed *)
  failure : string option;
  instructions : int;  (* simulated instructions (sim-worst) *)
}

type session = {
  op : int -> outcome;  (* the i-th operation of the measured stream *)
  window : int;
      (* operations in one round of the mix; the end-to-end figures use
         whole rounds only *)
  traced : Spans.t -> int -> outcome;
      (* the i-th operation of the traced pass; records root spans named
         "op" (what the untraced operation times) and, for serve-mixed,
         "replay" (the in-process handler) *)
  traced_ops : int;
  traced_counts : unit -> (string * float) list;
  peak_rss_mb : unit -> float;
  close : unit -> unit;
}

type t = {
  name : string;
  setup : size -> seed:int -> traced:bool -> session;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let outcome ?(instructions = 0) kind ~key seconds failure =
  { kind; key; seconds; failure; instructions }

let check cond fmt =
  Printf.ksprintf (fun msg -> if cond then None else Some msg) fmt

let first_failure = List.find_map Fun.id

(* Operation i of a stream that visits every input once per pass, each
   pass in a fresh seeded order, so every input is measured equally
   often. Indices must be requested in increasing order. *)
let cycle ~seed n =
  let rng = Rng.create seed in
  let perm = Array.init n Fun.id in
  let pass = ref (-1) in
  fun i ->
    while !pass < i / n do
      for k = n - 1 downto 1 do
        let j = Rng.int rng (k + 1) in
        let x = perm.(k) in
        perm.(k) <- perm.(j);
        perm.(j) <- x
      done;
      incr pass
    done;
    perm.(i mod n)

(* "name [lo, hi] [lo, hi] ..." rows of a golden table, by benchmark *)
let golden_table path =
  Host.read_lines path
  |> List.filter_map (fun line ->
    match String.split_on_char ' ' (String.trim line) with
    | name :: _ when String.contains line '[' ->
      let rec intervals s acc =
        match String.index_opt s '[' with
        | None -> List.rev acc
        | Some i ->
          let rest = String.sub s i (String.length s - i) in
          let acc =
            try Scanf.sscanf rest "[%d, %d]" (fun lo hi -> (lo, hi) :: acc)
            with Scanf.Scan_failure _ | End_of_file -> acc
          in
          intervals (String.sub rest 1 (String.length rest - 1)) acc
      in
      Some (name, intervals line [])
    | _ -> None)

let golden path ~name ~column =
  match List.assoc_opt name (golden_table path) with
  | Some intervals when List.length intervals > column -> List.nth intervals column
  | Some _ | None -> failwith (Printf.sprintf "%s: no row for %s" path name)

let golden_dir = "test/golden"

let machines =
  [ (Machine.e32, ""); (Machine.m7, "_m7") ]

let compile source =
  match Frontend.compile_string source with
  | Ok compiled -> compiled
  | Error { Frontend.message; line } ->
    failwith (Printf.sprintf "line %d: %s" line message)

let pick_benches size names =
  List.map Suite.find (match size with Full -> names | Smoke -> [ List.hd names ])

(* --- shared by the two analysis workloads ------------------------------- *)

type analysis_input = {
  label : string;
  source : string;
  spec_of : P.t -> Analysis.spec;
  expected : (int * int) option;  (* an independent reference, if any *)
}

let analysis_session ~inputs ~seed ~certify ~traced_passes ~warmup =
  let n = Array.length inputs in
  let order = cycle ~seed n in
  let traced_order = cycle ~seed:(seed + 1) n in
  (* Analysis.analyze's bounds per input, for inputs without a golden row
     and for the traced decomposition *)
  let analyzed = Hashtbl.create n in
  let run_analyze i =
    let input = inputs.(i) in
    let result, seconds =
      timed (fun () ->
          let compiled = compile input.source in
          Analysis.analyze ~certify (input.spec_of compiled.Compile.prog))
    in
    let bounds = (result.Analysis.bcet.Analysis.cycles, result.Analysis.wcet.Analysis.cycles) in
    let reference =
      match input.expected, Hashtbl.find_opt analyzed i with
      | Some e, _ | None, Some e -> e
      | None, None -> bounds
    in
    if not (Hashtbl.mem analyzed i) then Hashtbl.replace analyzed i bounds;
    let certs =
      if not certify then []
      else
        List.map
          (function
            | None -> Some (input.label ^ ": certificate missing")
            | Some (c : Analysis.certificate) ->
              check (Checker.gap_closed c.Analysis.verdict)
                "%s: certificate gap not closed" input.label)
          [ result.Analysis.wcet_cert; result.Analysis.bcet_cert ]
    in
    let failure =
      first_failure
        (check (bounds = reference) "%s: bounds [%d, %d], expected [%d, %d]"
           input.label (fst bounds) (snd bounds) (fst reference) (snd reference)
         :: certs)
    in
    outcome "analysis" ~key:input.label seconds failure
  in
  let counts = Decompose.counts () in
  let traced sp i =
    let k = traced_order i in
    let input = inputs.(k) in
    let reference =
      match input.expected, Hashtbl.find_opt analyzed k with
      | Some e, _ | None, Some e -> e
      | None, None ->
        let compiled = compile input.source in
        let r = Analysis.analyze (input.spec_of compiled.Compile.prog) in
        let b = (r.Analysis.bcet.Analysis.cycles, r.Analysis.wcet.Analysis.cycles) in
        Hashtbl.replace analyzed k b;
        b
    in
    let d =
      Spans.span sp "op" (fun () ->
          Decompose.analyze sp counts ~certify ~spec_of:input.spec_of input.source)
    in
    let failure =
      first_failure
        (check (d.Decompose.bounds = reference)
           "%s: decomposed bounds [%d, %d], Analysis.analyze gives [%d, %d]"
           input.label (fst d.Decompose.bounds) (snd d.Decompose.bounds)
           (fst reference) (snd reference)
         :: List.map
              (fun v -> check (Checker.gap_closed v) "%s: traced certificate gap not closed" input.label)
              d.Decompose.verdicts)
    in
    outcome "analysis" ~key:input.label 0. failure
  in
  for k = 0 to warmup - 1 do ignore (run_analyze k) done;
  { op = (fun i -> run_analyze (order i));
    window = n;
    traced;
    traced_ops = traced_passes * n;
    traced_counts = (fun () -> Decompose.count_metrics counts);
    peak_rss_mb = (fun () -> Host.peak_rss_mb "self");
    close = ignore }

(* --- paper-cli ---------------------------------------------------------- *)

let paper_names =
  List.map (fun (b : Bspec.t) -> b.Bspec.name) Suite.all

let paper_cli size ~seed ~traced:_ =
  let benches = pick_benches size paper_names in
  let inputs =
    List.concat_map
      (fun (mach, suffix) ->
        let table = Printf.sprintf "%s/table2%s.txt" golden_dir suffix in
        List.map
          (fun (b : Bspec.t) ->
            { label = Printf.sprintf "%s/%s" b.Bspec.name (Machine.id mach);
              source = b.Bspec.source;
              spec_of =
                (fun prog ->
                  Analysis.spec ~mach ~loop_bounds:b.Bspec.loop_bounds
                    ~functional:b.Bspec.functional ~root:b.Bspec.root prog);
              expected = Some (golden table ~name:b.Bspec.name ~column:0) })
          benches)
      machines
    |> Array.of_list
  in
  analysis_session ~inputs ~seed ~certify:false ~traced_passes:2 ~warmup:(Array.length inputs)

(* --- gen-certify -------------------------------------------------------- *)

(* Generated programs whose WCET ILP has between [lo] and [hi] variables
   before presolve. Analysis time grows steeply with that size, so drawing
   every program from one narrow band keeps a run's throughput a property
   of the code rather than of the sizes a seed happened to draw. *)
let generated ~seed ~count ~stmt_budget ~vars:(lo, hi) =
  let rng = Rng.create seed in
  let rec draw () =
    let case = Gen.case_sized ~stmt_budget (Rng.bits rng) in
    let source = Ipet_fuzz.Render.program case.Gen.prog in
    let ast, _ = Frontend.parse_and_check source in
    let loop_bounds = Ipet.Autobound.infer ast in
    let input =
      { label = Printf.sprintf "gen-%d" case.Gen.seed;
        source;
        spec_of =
          (fun prog -> Analysis.spec ~cache:case.Gen.cache ~loop_bounds ~root:"main" prog);
        expected = None }
    in
    let n =
      List.fold_left (fun a p -> max a (Ipet_lp.Lp_problem.num_variables p)) 0
        (Analysis.wcet_problems (input.spec_of (compile source).Compile.prog))
    in
    if lo <= n && n <= hi then input else draw ()
  in
  Array.init count (fun _ -> draw ())

let gen_certify size ~seed ~traced:_ =
  let inputs =
    match size with
    | Full -> generated ~seed ~count:12 ~stmt_budget:40 ~vars:(140, 160)
    | Smoke -> generated ~seed ~count:2 ~stmt_budget:12 ~vars:(0, max_int)
  in
  analysis_session ~inputs ~seed ~certify:true ~traced_passes:2 ~warmup:1

(* --- sim-worst ---------------------------------------------------------- *)

let sim_names = [ "des"; "fullsearch"; "whetstone" ]

let sim_worst size ~seed ~traced:_ =
  let runs =
    List.concat_map
      (fun (mach, suffix) ->
        let table = Printf.sprintf "%s/table3%s.txt" golden_dir suffix in
        List.map
          (fun (b : Bspec.t) ->
            let compiled = compile b.Bspec.source in
            let data = List.hd b.Bspec.worst_data in
            let m = Interp.create ~mach compiled.Compile.prog ~init:compiled.Compile.init_data in
            (* each of these has one worst-case data set, whose cycles are
               the table's measured hi *)
            let _, hi = golden table ~name:b.Bspec.name ~column:1 in
            (b, mach, compiled, data, m, hi))
          (pick_benches size sim_names))
      machines
    |> Array.of_list
  in
  let n = Array.length runs in
  let run_on m (b : Bspec.t) (compiled : Compile.t) (data : Bspec.dataset) =
    Interp.reset_stats m;
    Interp.reset_memory m ~init:compiled.Compile.init_data;
    data.Bspec.setup m;
    Interp.flush_cache m;
    ignore (Interp.call m b.Bspec.root data.Bspec.args)
  in
  let label (b : Bspec.t) mach = b.Bspec.name ^ "/" ^ Machine.id mach in
  let verdict b mach m hi =
    check (Interp.cycles m = hi) "%s: %d cycles, golden measured %d" (label b mach)
      (Interp.cycles m) hi
  in
  let run k =
    let b, mach, compiled, data, m, hi = runs.(k) in
    let (), seconds = timed (fun () -> run_on m b compiled data) in
    outcome ~instructions:(Interp.instructions m) "run" ~key:(label b mach) seconds
      (verdict b mach m hi)
  in
  let order = cycle ~seed n in
  let instructions = ref 0 and hits = ref 0 and misses = ref 0 in
  let traced_order = cycle ~seed:(seed + 1) n in
  let traced sp i =
    let b, mach, compiled, data, _, hi = runs.(traced_order i) in
    let m =
      Spans.span sp "op" (fun () ->
          let m =
            Spans.span sp "sim.decode" (fun () ->
                Interp.create ~mach compiled.Compile.prog ~init:compiled.Compile.init_data)
          in
          data.Bspec.setup m;
          Interp.flush_cache m;
          Spans.span sp "sim.run" (fun () -> ignore (Interp.call m b.Bspec.root data.Bspec.args));
          m)
    in
    instructions := !instructions + Interp.instructions m;
    hits := !hits + Interp.cache_hits m;
    misses := !misses + Interp.cache_misses m;
    outcome ~instructions:(Interp.instructions m) "run" ~key:(label b mach) 0.
      (verdict b mach m hi)
  in
  (* warm-up: one untimed run of each *)
  for k = 0 to n - 1 do ignore (run k) done;
  { op = (fun i -> run (order i));
    window = n;
    traced;
    traced_ops = 2 * n;
    traced_counts =
      (fun () ->
        [ ("sim.instructions", float_of_int !instructions);
          ("sim.icache_miss_ratio", Decompose.ratio !misses (!hits + !misses)) ]);
    peak_rss_mb = (fun () -> Host.peak_rss_mb "self");
    close = ignore }

(* --- serve-mixed -------------------------------------------------------- *)

(* loop bounds only, as [bench export] renders them: the functionality
   constraints have no textual form *)
let render_annotations ~root (bounds : Annotation.t list) =
  String.concat ""
    (Printf.sprintf "root %s\n" root
     :: List.filter_map
          (fun (a : Annotation.t) ->
            match a.Annotation.header with
            | `Line l ->
              Some (Printf.sprintf "loop %s %d %d %d\n" a.Annotation.func l
                      a.Annotation.lo a.Annotation.hi)
            | `Block _ -> None)
          bounds)

let reachable (prog : P.t) root =
  let seen = Hashtbl.create 8 in
  let rec visit f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.replace seen f ();
      Array.iter
        (fun b -> List.iter visit (P.calls_of_block b))
        (P.find_func prog f).P.blocks
    end
  in
  visit root;
  seen

(* A program as fixed text around editable integer literals: [text] has
   one more element than [values]. Bumping a literal changes no line
   count, so the line-keyed annotations stay valid. *)
type program = {
  id : string;
  text : string array;
  values : int array;
  funcs : string array;  (* the function each literal is in *)
  live : bool array;  (* false once bumping the literal left its function unchanged *)
  edited : string array;  (* functions with literals, edited in turn *)
  next_edited : unit -> string;
  forms : (Digest.t, unit) Hashtbl.t;  (* every compiled function form sent so far *)
  annotations : string;
  mutable reference : string;  (* report of the current version's first response *)
}

let source p =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i t ->
      Buffer.add_string b t;
      if i < Array.length p.values then Buffer.add_string b (string_of_int p.values.(i)))
    p.text;
  Buffer.contents b

let form (prog : P.t) f = Digest.string (Marshal.to_string (P.find_func prog f) [])

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* Integer literals inside the bodies of functions in [keep], as
   (offset, length, value, function). Comments, float literals, hex
   literals and literals in global declarations are skipped. *)
let literal_sites source ~keep =
  let n = String.length source in
  let sites = ref [] in
  let depth = ref 0 and candidate = ref None and fn = ref None in
  let last_ident = ref "" in
  let i = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if c = '/' && !i + 1 < n && source.[!i + 1] = '*' then begin
      let j = ref (!i + 2) in
      while !j < n - 1 && not (source.[!j] = '*' && source.[!j + 1] = '/') do incr j done;
      i := !j + 2
    end
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '/' then
      i := (try String.index_from source !i '\n' with Not_found -> n)
    else if is_ident c && not ('0' <= c && c <= '9') then begin
      let j = ref !i in
      while !j < n && is_ident source.[!j] do incr j done;
      last_ident := String.sub source !i (!j - !i);
      i := !j
    end
    else if '0' <= c && c <= '9' then begin
      let j = ref !i in
      while !j < n && '0' <= source.[!j] && source.[!j] <= '9' do incr j done;
      let before = if !i = 0 then ' ' else source.[!i - 1] in
      let after = if !j < n then source.[!j] else ' ' in
      let len = !j - !i in
      (match !fn with
       | Some f
         when keep f && len <= 6 && before <> '.' && after <> '.'
              && not (is_ident after) ->
         sites := (!i, len, int_of_string (String.sub source !i len), f) :: !sites
       | Some _ | None -> ());
      i := !j
    end
    else begin
      (match c with
       | '(' when !depth = 0 -> candidate := Some !last_ident
       | ';' when !depth = 0 -> candidate := None
       | '{' ->
         if !depth = 0 then fn := !candidate;
         incr depth
       | '}' ->
         decr depth;
         if !depth = 0 then fn := None
       | _ -> ());
      incr i
    end
  done;
  List.rev !sites

(* literals of the functions the analysis of [root] reaches *)
let make_program ~seed ~id ~source ~root ~annotations =
  let prog = (compile source).Compile.prog in
  let live = reachable prog root in
  let sites = literal_sites source ~keep:(Hashtbl.mem live) in
  let text = ref [] and pos = ref 0 in
  List.iter
    (fun (off, len, _, _) ->
      text := String.sub source !pos (off - !pos) :: !text;
      pos := off + len)
    sites;
  text := String.sub source !pos (String.length source - !pos) :: !text;
  let forms = Hashtbl.create 64 in
  Hashtbl.iter (fun f () -> Hashtbl.replace forms (form prog f) ()) live;
  let edited = Array.of_list (List.sort_uniq compare (List.map (fun (_, _, _, f) -> f) sites)) in
  let order = cycle ~seed (max 1 (Array.length edited)) and count = ref (-1) in
  { id;
    edited;
    next_edited = (fun () -> incr count; edited.(order !count));
    text = Array.of_list (List.rev !text);
    values = Array.of_list (List.map (fun (_, _, v, _) -> v) sites);
    funcs = Array.of_list (List.map (fun (_, _, _, f) -> f) sites);
    live = Array.make (List.length sites) true;
    forms;
    annotations;
    reference = "" }

(* Bump one literal of the program's next function in turn, and return
   that function. The function then compiles to a form never sent before:
   a new cache key, so the daemon has to re-solve that unit. Taking the
   functions in turn keeps the cost of a run's edits a property of the
   programs, not of the literals a seed drew. A literal whose bumps leave
   its function as seen before (dead code, a folded constant) is
   retired. *)
let rec edit p rng =
  if not (Array.exists Fun.id p.live) then failwith (p.id ^ ": no editable literal left");
  let f = p.next_edited () in
  let live =
    List.filter (fun k -> p.live.(k) && p.funcs.(k) = f) (List.init (Array.length p.values) Fun.id)
  in
  if live = [] then edit p rng else
  let k = List.nth live (Rng.int rng (List.length live)) in
  let original = p.values.(k) in
  let rec bump tries =
    tries > 0
    && begin
      p.values.(k) <- p.values.(k) + 1;
      match Frontend.compile_string (source p) with
      | Error _ -> false
      | Ok c ->
        let d = form c.Compile.prog p.funcs.(k) in
        if Hashtbl.mem p.forms d then bump (tries - 1)
        else begin
          Hashtbl.replace p.forms d ();
          true
        end
    end
  in
  if bump 3 then f
  else begin
    p.values.(k) <- original;
    p.live.(k) <- false;
    edit p rng
  end

(* Small multi-function programs from the fuzz generator: at least two
   reachable functions and at most eight basic blocks. A read costs about
   the same per block, so these sort below every suite program, and the
   median request is the read of the same suite program whatever the
   seed. *)
let generated_programs ~seed ~count =
  let rng = Rng.create seed in
  let rec go acc k =
    if k = 0 then List.rev acc
    else begin
      let case = Gen.case (Rng.bits rng) in
      let source = Ipet_fuzz.Render.program case.Gen.prog in
      let ast, _ = Frontend.parse_and_check source in
      let prog = (compile source).Compile.prog in
      let p =
        make_program ~seed ~id:(Printf.sprintf "gen-%d" case.Gen.seed) ~source ~root:"main"
          ~annotations:(render_annotations ~root:"main" (Ipet.Autobound.infer ast))
      in
      let live = reachable prog "main" in
      let blocks =
        Hashtbl.fold (fun f () a -> a + Array.length (P.find_func prog f).P.blocks) live 0
      in
      if Hashtbl.length live >= 2 && blocks <= 8 && Array.length p.values > 0
      then go (p :: acc) (k - 1)
      else go acc k
    end
  in
  go [] count

let request p =
  J.to_string
    (J.Obj
       [ ("v", J.Int Ipet_serve.Protocol.version);
         ("op", J.Str "analyze");
         ("id", J.Str p.id);
         ("source", J.Str (source p));
         ("annotations", J.Str p.annotations) ])

let stat response name =
  Option.bind (Option.bind (J.member "stats" response) (J.member name)) J.to_int
  |> Option.value ~default:(-1)

(* parse a response and apply the checks every analyze response must pass *)
let parse_response p line =
  match Option.map J.parse line with
  | None -> Error (p.id ^ ": the daemon closed the connection")
  | Some (Error e) -> Error (p.id ^ ": unparsable response: " ^ e)
  | Some (Ok r) ->
    if J.member "ok" r <> Some (J.Bool true) then
      Error (Printf.sprintf "%s: request failed: %s" p.id (Option.get line))
    else if stat r "certs_rejected" <> 0 then
      Error (p.id ^ ": a certificate was rejected")
    else
      match J.member "report" r with
      | None -> Error (p.id ^ ": no report")
      | Some report -> Ok (r, J.to_string report)

let tmp_root = "_build/ledger-tmp"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  List.fold_left
    (fun acc part ->
      let d = if acc = "" then part else Filename.concat acc part in
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      d)
    "" (String.split_on_char '/' path)
  |> ignore

(* daemons still running, stopped at exit whatever happens *)
let live_daemons : int list ref = ref []

let stop_daemon pid =
  if List.mem pid !live_daemons then begin
    live_daemons := List.filter (( <> ) pid) !live_daemons;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop_daemon !live_daemons)

let start_daemon ~socket ~cache =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; socket; cache |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live_daemons := pid :: !live_daemons;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec connect () =
    match Ipet_serve.Client.connect socket with
    | client -> client
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      ignore (Unix.select [] [] [] 0.01);
      connect ()
  in
  (pid, connect ())

let cache_cap = 64 * 1024 * 1024

let sessions = ref 0

let serve_mixed size ~seed ~traced =
  let suite, generated, traced_requests =
    match size with Full -> (paper_names, 9, 320) | Smoke -> ([ "check_data"; "piksrt" ], 2, 24)
  in
  let programs =
    Array.of_list
      (List.map
         (fun name ->
           let b = Suite.find name in
           make_program ~seed ~id:name ~source:b.Bspec.source ~root:b.Bspec.root
             ~annotations:(render_annotations ~root:b.Bspec.root b.Bspec.loop_bounds))
         suite
       @ generated_programs ~seed ~count:generated)
  in
  incr sessions;
  let dir = Printf.sprintf "%s/%d-%d" tmp_root (Unix.getpid ()) !sessions in
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let daemon, client = start_daemon ~socket ~cache:(Filename.concat dir "cache") in
  let send p = Ipet_serve.Client.request client (request p) in
  (* cold fill: every program's first version solves from scratch *)
  Array.iter
    (fun p ->
      match parse_response p (send p) with
      | Ok (_, report) -> p.reference <- report
      | Error e -> failwith ("cold fill: " ^ e))
    programs;
  (* the in-process handler the traced pass replays each request on, with
     a cache filled the same way *)
  let replay =
    if not traced then None
    else begin
      let config =
        Ipet_serve.Protocol.make
          ~cache:(Ipet_serve.Cache.create ~dir:(Filename.concat dir "replay") ~cap_bytes:cache_cap)
          ()
      in
      Array.iter (fun p -> ignore (Ipet_serve.Protocol.handle_line config (request p))) programs;
      Some config
    end
  in
  (* A request stream: every 8th request edits a program (a never-seen
     version: a one-unit re-solve, certificate and cache write), the others
     re-request a program's current version (a cache read of every unit).
     Edits and reads each visit the programs in seeded passes. *)
  let stream ~seed =
    let n = Array.length programs in
    let reads = cycle ~seed n and edits = cycle ~seed:(seed + 2) n in
    let rng = Rng.create seed in
    let i = ref (-1) in
    fun () ->
      incr i;
      if !i mod 8 = 7 then begin
        let p = programs.(edits (!i / 8)) in
        (p, "edit", "edit:" ^ p.id ^ "/" ^ edit p rng)
      end
      else
        let p = programs.(reads (!i - (!i / 8))) in
        (p, "hit", "hit:" ^ p.id)
  in
  let judge p kind line =
    match parse_response p line with
    | Error e -> Some e
    | Ok (r, report) ->
      if kind = "edit" then begin
        p.reference <- report;
        check (stat r "units_solved" >= 1) "%s: an edit re-solved no unit" p.id
      end
      else
        first_failure
          [ check (stat r "units_solved" = 0) "%s: a hit re-solved %d units" p.id
              (stat r "units_solved");
            check (report = p.reference) "%s: a hit differs from the version's first response" p.id ]
  in
  let next = stream ~seed in
  let op _ =
    let p, kind, key = next () in
    let line, seconds = timed (fun () -> send p) in
    outcome kind ~key seconds (judge p kind line)
  in
  (* warm-up: one untimed hit per program *)
  Array.iter (fun p -> ignore (judge p "hit" (send p))) programs;
  let traced_next = stream ~seed:(seed + 1) in
  let totals = Hashtbl.create 8 in
  let add name v =
    Hashtbl.replace totals name (v + Option.value ~default:0 (Hashtbl.find_opt totals name))
  in
  let traced sp _ =
    let p, kind, key = traced_next () in
    let line = request p in
    let response =
      Spans.span sp "op" (fun () ->
          Spans.span sp "serve.roundtrip" (fun () -> Ipet_serve.Client.request client line))
    in
    let replayed =
      Spans.span sp "replay" (fun () ->
          Spans.span sp "serve.handler" (fun () ->
              Ipet_obs.Obs.reset ();
              let since = Unix.gettimeofday () in
              let r, _ = Ipet_serve.Protocol.handle_line (Option.get replay) line in
              Spans.adopt sp ~since (Ipet_obs.Obs.spans ()) ~rename:(fun name ->
                  if String.starts_with ~prefix:"frontend." name then Some "lang" else None);
              r))
    in
    (match Option.map J.parse response with
     | Some (Ok r) ->
       List.iter
         (fun name -> add name (stat r name))
         [ "units_total"; "units_cached"; "units_solved"; "certs_checked"; "certs_rejected" ]
     | Some (Error _) | None -> ());
    let judged = judge p kind response in
    let replay_failure =
      match parse_response p (Some replayed) with
      | Ok (_, report) ->
        check (report = p.reference) "%s: the in-process replay differs from the daemon" p.id
      | Error e -> Some ("replay: " ^ e)
    in
    outcome kind ~key 0. (first_failure [ judged; replay_failure ])
  in
  let cache_stat name =
    match
      Option.map J.parse
        (Ipet_serve.Client.request client
           (J.to_string (J.Obj [ ("v", J.Int Ipet_serve.Protocol.version); ("op", J.Str "stats") ])))
    with
    | Some (Ok r) ->
      Option.bind (Option.bind (J.member "cache" r) (J.member name)) J.to_int
      |> Option.value ~default:0
    | Some (Error _) | None -> 0
  in
  let total name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt totals name)) in
  { op;
    window = 64;
    traced = (fun sp i -> Ipet_obs.Obs.enable ();
               Fun.protect ~finally:Ipet_obs.Obs.disable (fun () -> traced sp i));
    traced_ops = traced_requests;
    traced_counts =
      (fun () ->
        [ ("serve.units_cached_ratio",
           if total "units_total" = 0. then 0. else total "units_cached" /. total "units_total");
          ("serve.units_solved", total "units_solved");
          ("serve.certs_checked", total "certs_checked");
          ("serve.certs_rejected", total "certs_rejected");
          ("serve.cache_bytes", float_of_int (cache_stat "bytes"));
          ("serve.cache_evictions", float_of_int (cache_stat "evictions")) ]);
    peak_rss_mb = (fun () -> Host.peak_rss_mb (string_of_int daemon));
    close =
      (fun () ->
        ignore
          (Ipet_serve.Client.request client
             (J.to_string (J.Obj [ ("v", J.Int Ipet_serve.Protocol.version); ("op", J.Str "shutdown") ])));
        Ipet_serve.Client.close client;
        stop_daemon daemon;
        remove_tree dir;
        try Sys.rmdir tmp_root with Sys_error _ -> ()) }

(* the daemon side of serve-mixed: jobs 1, its own cache directory *)
let daemon ~socket ~cache =
  Ipet_serve.Server.run
    { Ipet_serve.Server.socket_path = socket;
      pool = None;
      cache = Some (Ipet_serve.Cache.create ~dir:cache ~cap_bytes:cache_cap);
      default_timeout_ms = None;
      max_request_bytes = 16 * 1024 * 1024;
      access_log = None;
      access_log_cap = 0;
      flight_cap = 512;
      flight_dump = None }

let all =
  [ { name = "paper-cli"; setup = paper_cli };
    { name = "gen-certify"; setup = gen_certify };
    { name = "serve-mixed"; setup = serve_mixed };
    { name = "sim-worst"; setup = sim_worst } ]
