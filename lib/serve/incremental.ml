module P = Ipet_isa.Prog
module Callgraph = Ipet_cfg.Callgraph
module Machine = Ipet_machine.Machine
module Lp = Ipet_lp.Lp_problem
module A = Ipet.Analysis
module Json = Ipet_obs.Json
module Cert = Ipet_cert.Certificate
module Checker = Ipet_cert.Checker

exception Timeout

type stats = {
  mutable units_total : int;
  mutable units_cached : int;
  mutable units_solved : int;
  mutable ilp_solves : int;
  mutable simplex_pivots : int;
  mutable certs_checked : int;
  mutable certs_rejected : int;
}

let fresh_stats () =
  { units_total = 0; units_cached = 0; units_solved = 0; ilp_solves = 0;
    simplex_pivots = 0; certs_checked = 0; certs_rejected = 0 }

let stats_fields s =
  [ ("units_total", Json.Int s.units_total);
    ("units_cached", Json.Int s.units_cached);
    ("units_solved", Json.Int s.units_solved);
    ("ilp_solves", Json.Int s.ilp_solves);
    ("simplex_pivots", Json.Int s.simplex_pivots);
    ("certs_checked", Json.Int s.certs_checked);
    ("certs_rejected", Json.Int s.certs_rejected) ]

let fail fmt = Printf.ksprintf (fun m -> raise (A.Analysis_error m)) fmt

let check_deadline = function
  | Some t when Unix.gettimeofday () > t -> raise Timeout
  | Some _ | None -> ()

(* one analysis unit, ready to run: its ILPs (a single constraint set for
   a function; one per surviving constraint set for the whole program) and
   the instances its witness counts are read from *)
type work = {
  name : string;
  key : string;
  insts : Ipet.Structural.instance list;
  system : A.system;
}

type unit_result = { key : string; wcet : A.extreme; bcet : A.extreme }

(* --- the cache entry: schema and the two certificates --------------------- *)

let entry_to_json wcet bcet =
  Json.Obj
    [ ("schema", Json.Int Key.schema);
      ("wcet", Cert.to_json wcet);
      ("bcet", Cert.to_json bcet) ]

let entry_of_json j =
  match
    ( Option.bind (Json.member "schema" j) Json.to_int,
      Json.member "wcet" j,
      Json.member "bcet" j )
  with
  | Some s, Some wcet, Some bcet when s = Key.schema -> Some (wcet, bcet)
  | _ -> None

(* --- certificate validation ----------------------------------------------- *)

(* every trusted-checker verdict the request relies on, stored or fresh,
   is counted here: the checker, not the solver, has the last word on
   every bound the daemon hands out *)
let record_check ~stats verdict =
  stats.certs_checked <- stats.certs_checked + 1;
  if Result.is_error verdict then
    stats.certs_rejected <- stats.certs_rejected + 1;
  verdict

(* a stored certificate is checked against the set whose digest it
   names, on that set's view, which the unit's other certificate shares;
   the result is that set's problem *)
let validate ~stats system direction (cert : (Cert.t, string) result) =
  record_check ~stats
    (match cert with
     | Error m -> Error m
     | Ok cert ->
       (match A.check_stored system direction cert with
        | None -> Error "the digest names no problem of this request"
        | Some (p, Checker.Valid _) -> Ok (p, cert)
        | Some (_, Checker.Invalid reasons) ->
          Error (String.concat "; " reasons)))

(* --- the unit loop --------------------------------------------------------- *)

(* one direction of a unit, solved by the monolithic analysis's own solve
   and certified on the winning witness; the certificate is checked once,
   at production *)
let solve_direction ~stats spec (w : work) what direction =
  let extreme, solved, cert =
    A.solve_extreme ~certify:true spec w.insts w.system direction
  in
  stats.ilp_solves <- stats.ilp_solves + solved.A.sets_solved;
  stats.simplex_pivots <- stats.simplex_pivots + solved.A.simplex_pivots;
  (* [~certify:true] always attaches the certificate *)
  let c = Option.get cert in
  let verdict =
    match c.A.verdict with
    | Checker.Valid _ -> Ok ()
    | Checker.Invalid reasons -> Error (String.concat "; " reasons)
  in
  match record_check ~stats verdict with
  | Ok () -> (extreme, c.A.cert)
  | Error m ->
    fail "%s %s certificate rejected by the checker: %s" w.name what m

(* Read the entry, validate both stored certificates, solve when either
   fails, and write the entry back. A cached extreme is read off its
   certificate's witness, which yields exactly the extreme the fresh
   solve reported with it ({!A.extreme_of_witness}), so a warm report is
   the cold one. An entry that does not validate is dropped and the unit
   re-solved: a cache can be corrupted or tampered with, the proof
   obligation cannot *)
let run_unit ~cache ~stats ~deadline spec (w : work) =
  let entry = Option.bind cache (fun c -> Cache.get c w.key) in
  let stored =
    match Option.bind entry entry_of_json with
    | None -> None
    | Some (wcet, bcet) ->
      let check direction j =
        Result.to_option (validate ~stats w.system direction (Cert.of_json j))
      in
      Option.bind (check Lp.Maximize wcet) (fun wv ->
          Option.map (fun bv -> (wv, bv)) (check Lp.Minimize bcet))
  in
  if Option.is_some entry && Option.is_none stored then
    Option.iter (fun c -> Cache.remove c w.key) cache;
  match stored with
  | Some ((wp, wc), (bp, bc)) ->
    stats.units_cached <- stats.units_cached + 1;
    let extreme p (c : Cert.t) =
      A.extreme_of_witness w.insts p ~bound:c.Cert.bound c.Cert.witness
    in
    { key = w.key; wcet = extreme wp wc; bcet = extreme bp bc }
  | None ->
    check_deadline deadline;
    stats.units_solved <- stats.units_solved + 1;
    let solve = solve_direction ~stats spec w in
    let wcet, wc = solve "wcet" Lp.Maximize in
    let bcet, bc = solve "bcet" Lp.Minimize in
    Option.iter (fun c -> Cache.put c w.key (entry_to_json wc bc)) cache;
    { key = w.key; wcet; bcet }

(* --- the two kinds of unit ------------------------------------------------- *)

(* one function in isolation, entered once: the monolithic objective over
   its own instance, each call charged the callee's per-entry extreme. The
   unit's two ILPs are built eagerly — a cache hit needs them too, to
   validate the stored certificates against exactly the problems this
   request would otherwise solve. A hit implies the same annotations that
   previously solved (they are part of the key), so the missing-bound
   check cannot newly fire on the warm path *)
let func_unit (spec : A.spec) costs
    (done_units : (string, unit_result) Hashtbl.t) (func : P.func) =
  let inst =
    { Ipet.Structural.ctx = Ipet.Flowvar.root_ctx; func; sites = [] }
  in
  let objective direction select =
    A.objective costs [ inst ] direction ~callee:(fun g ->
        (select (Hashtbl.find done_units g)).A.cycles)
  in
  let wcet = objective Lp.Maximize (fun u -> u.wcet) in
  let bcet = objective Lp.Minimize (fun u -> u.bcet) in
  let key =
    Key.func_key ~mach:(Machine.id spec.A.mach)
      ~annotations:spec.A.loop_bounds ~wcet ~bcet func
  in
  let constraints = A.flow_constraints spec [ inst ] in
  { name = func.P.name; key; insts = [ inst ];
    system = A.system ~wcet ~bcet [ constraints ] }

(* functionality constraints couple flow variables across functions, so
   such a request is one whole-program unit: the monolithic ILPs *)
let program_unit (spec : A.spec) =
  let insts, system = A.program_system spec in
  let key =
    Key.program_key ~mach:(Machine.id spec.A.mach) ~cache:spec.A.cache
      ~dcache:spec.A.dcache ~first_miss:spec.A.first_miss_refinement
      ~root:spec.A.root ~annotations:spec.A.loop_bounds
      ~functional:spec.A.functional spec.A.prog
  in
  { name = spec.A.root; key; insts; system }

(* --- aggregation --------------------------------------------------------- *)

(* scale each unit's per-entry witness by the entry count its callers'
   witnesses induce, callers first; root enters once. A program unit is the
   one-unit case: its witness already counts every instance, and the calls
   it makes lead to no further unit *)
let aggregate prog root topo (units : (string, unit_result) Hashtbl.t) select =
  let entries = Hashtbl.create 8 in
  Hashtbl.replace entries root 1;
  let entries_of f = Option.value ~default:0 (Hashtbl.find_opt entries f) in
  List.iter
    (fun fname ->
      match entries_of fname with
      | 0 -> ()
      | e ->
        List.iter
          (fun ((f, b), c) ->
            List.iter
              (fun g -> Hashtbl.replace entries g (entries_of g + (e * c)))
              (P.calls_of_block (P.find_func prog f).P.blocks.(b)))
          (select (Hashtbl.find units fname)).A.counts)
    (List.rev topo);
  let counts =
    List.concat_map
      (fun fname ->
        match entries_of fname with
        | 0 -> []
        | e ->
          List.map
            (fun (fb, c) -> (fb, e * c))
            (select (Hashtbl.find units fname)).A.counts)
      topo
    |> List.sort compare
  in
  let binding =
    List.concat_map
      (fun fname ->
        match entries_of fname with
        | 0 -> []
        | _ -> (select (Hashtbl.find units fname)).A.binding)
      topo
    |> List.sort_uniq compare
  in
  (counts, binding, entries_of)

(* --- report JSON --------------------------------------------------------- *)

let counts_json counts =
  Json.List
    (List.map
       (fun ((f, b), c) -> Json.List [ Json.Str f; Json.Int b; Json.Int c ])
       counts)

let binding_json binding = Json.List (List.map (fun o -> Json.Str o) binding)

let report ~root ~unit_kind ~bcet ~wcet ~wcet_counts ~wcet_binding ~bcet_counts
    ~bcet_binding ~units =
  Json.Obj
    [ ("schema", Json.Int Key.schema);
      ("root", Json.Str root);
      ("unit", Json.Str unit_kind);
      ("bcet", Json.Int bcet);
      ("wcet", Json.Int wcet);
      ("wcet_counts", counts_json wcet_counts);
      ("wcet_binding", binding_json wcet_binding);
      ("bcet_counts", counts_json bcet_counts);
      ("bcet_binding", binding_json bcet_binding);
      ("units", Json.List units) ]

let unit_row ~name ~key ~bcet_pe ~wcet_pe ~bcet_entries ~wcet_entries =
  Json.Obj
    [ ("name", Json.Str name);
      ("key", Json.Str key);
      ("bcet_pe", Json.Int bcet_pe);
      ("wcet_pe", Json.Int wcet_pe);
      ("bcet_entries", Json.Int bcet_entries);
      ("wcet_entries", Json.Int wcet_entries) ]

(* --- entry point --------------------------------------------------------- *)

let analyze ?cache ?deadline ~stats (spec : A.spec) =
  let prog = spec.A.prog in
  if not (Array.exists (fun (f : P.func) -> f.P.name = spec.A.root) prog.P.funcs)
  then fail "unknown root function %s" spec.A.root;
  (* the units in solve order, and how to build one from the units before *)
  let unit_kind, topo, work_of =
    if spec.A.functional <> [] then
      ("program", [ spec.A.root ], fun _ _ -> program_unit spec)
    else begin
      let costs = A.costs spec in
      let cg = Callgraph.of_program prog in
      let reach = Hashtbl.create 8 in
      let rec mark f =
        if not (Hashtbl.mem reach f) then begin
          Hashtbl.add reach f ();
          List.iter mark (Callgraph.callees cg f)
        end
      in
      mark spec.A.root;
      let order =
        match Callgraph.topological_order cg with
        | order -> order
        | exception Callgraph.Recursive cycle ->
          fail "recursive program: %s" (String.concat " -> " cycle)
      in
      (* callees first; restricted to functions reachable from the root *)
      ( "func",
        List.filter (Hashtbl.mem reach) order,
        fun units fname -> func_unit spec costs units (P.find_func prog fname) )
    end
  in
  stats.units_total <- stats.units_total + List.length topo;
  let units : (string, unit_result) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Hashtbl.replace units name
        (run_unit ~cache ~stats ~deadline spec (work_of units name)))
    topo;
  let root_unit = Hashtbl.find units spec.A.root in
  let wcet_counts, wcet_binding, wcet_entries =
    aggregate prog spec.A.root topo units (fun u -> u.wcet)
  in
  let bcet_counts, bcet_binding, bcet_entries =
    aggregate prog spec.A.root topo units (fun u -> u.bcet)
  in
  report ~root:spec.A.root ~unit_kind ~bcet:root_unit.bcet.A.cycles
    ~wcet:root_unit.wcet.A.cycles ~wcet_counts ~wcet_binding ~bcet_counts
    ~bcet_binding
    ~units:
      (List.map
         (fun fname ->
           let u = Hashtbl.find units fname in
           unit_row ~name:fname ~key:u.key ~bcet_pe:u.bcet.A.cycles
             ~wcet_pe:u.wcet.A.cycles ~bcet_entries:(bcet_entries fname)
             ~wcet_entries:(wcet_entries fname))
         topo)
