module P = Ipet_isa.Prog
module Layout = Ipet_isa.Layout
module Callgraph = Ipet_cfg.Callgraph
module Cost = Ipet_machine.Cost
module Machine = Ipet_machine.Machine
module L = Ipet_lp.Linexpr
module Lp = Ipet_lp.Lp_problem
module Ilp = Ipet_lp.Ilp
module Simplex = Ipet_lp.Simplex
module Rat = Ipet_num.Rat
module A = Ipet.Analysis
module Obs = Ipet_obs.Obs
module Cert = Ipet_cert.Certificate
module Checker = Ipet_cert.Checker
module Certify = Ipet_cert.Certify

exception Timeout

type stats = {
  units_total : int;
  units_cached : int;
  units_solved : int;
  ilp_solves : int;
  warm_lp_hits : int;
  simplex_pivots : int;
  certs_checked : int;
  certs_rejected : int;
}

type counter = {
  mutable cached : int;
  mutable solved : int;
  mutable solves : int;
  mutable warm : int;
  mutable pivots : int;
  mutable cert_checks : int;
  mutable cert_rejects : int;
}

let fail fmt = Printf.ksprintf (fun m -> raise (A.Analysis_error m)) fmt

let check_deadline = function
  | Some t when Unix.gettimeofday () > t -> raise Timeout
  | Some _ | None -> ()

(* one per-function extreme: per-entry cycles, per-entry witness block
   counts (zero counts omitted), origins of the binding constraints, and
   the serialized duality certificate proving the cycles *)
type extreme_pe = {
  cycles_pe : int;
  counts_pe : (int * int) list;
  binding_pe : string list;
  cert_pe : string;
}

type unit_result = { key : string; wcet : extreme_pe; bcet : extreme_pe }

(* --- JSON (de)serialization of cached unit results ----------------------- *)

let extreme_to_json e =
  Json.Obj
    [ ("cycles", Json.Int e.cycles_pe);
      ( "counts",
        Json.List
          (List.map
             (fun (b, c) -> Json.List [ Json.Int b; Json.Int c ])
             e.counts_pe) );
      ("binding", Json.List (List.map (fun o -> Json.Str o) e.binding_pe));
      ("cert", Json.Str e.cert_pe) ]

let extreme_of_json j =
  match
    ( Option.bind (Json.member "cycles" j) Json.to_int,
      Option.bind (Json.member "counts" j) Json.to_list,
      Option.bind (Json.member "binding" j) Json.to_list,
      Option.bind (Json.member "cert" j) Json.to_str )
  with
  | Some cycles_pe, Some counts, Some binding, Some cert_pe ->
    let count = function
      | Json.List [ Json.Int b; Json.Int c ] -> Some (b, c)
      | _ -> None
    in
    let origin = function Json.Str s -> Some s | _ -> None in
    let counts_pe = List.filter_map count counts in
    let binding_pe = List.filter_map origin binding in
    if List.length counts_pe = List.length counts
       && List.length binding_pe = List.length binding
    then Some { cycles_pe; counts_pe; binding_pe; cert_pe }
    else None
  | _ -> None

let unit_to_json u =
  Json.Obj
    [ ("schema", Json.Int Key.schema);
      ("wcet", extreme_to_json u.wcet);
      ("bcet", extreme_to_json u.bcet) ]

let unit_of_json key j =
  match
    ( Option.bind (Json.member "schema" j) Json.to_int,
      Option.bind (Json.member "wcet" j) extreme_of_json,
      Option.bind (Json.member "bcet" j) extreme_of_json )
  with
  | Some s, Some wcet, Some bcet when s = Key.schema -> Some { key; wcet; bcet }
  | _ -> None

(* --- certificate validation ----------------------------------------------- *)

(* a fresh solve must come with a checkable proof before it is cached or
   reported; a cached entry must still carry one that checks against the
   problem this request would solve — either way the trusted checker, not
   the solver, has the last word on every bound the daemon hands out *)
let checked_cert ~counter ~what problem cert =
  counter.cert_checks <- counter.cert_checks + 1;
  Obs.add "serve.cert.checked" 1;
  match Checker.check problem cert with
  | Checker.Valid _ -> ()
  | Checker.Invalid reasons ->
    counter.cert_rejects <- counter.cert_rejects + 1;
    Obs.add "serve.cert.rejected" 1;
    fail "%s certificate rejected by the checker: %s" what
      (String.concat "; " reasons)

(* validation of a cached extreme: parse the stored certificate, require it
   to certify exactly the cached cycle count, and check it against the
   problem rebuilt for this request. Failure is not fatal — the entry is
   dropped and re-solved *)
let cached_extreme_valid ~counter problem (e : extreme_pe) =
  counter.cert_checks <- counter.cert_checks + 1;
  Obs.add "serve.cert.checked" 1;
  let ok =
    match Cert.of_string e.cert_pe with
    | Error _ -> false
    | Ok cert ->
      Rat.equal cert.Cert.bound (Rat.of_int e.cycles_pe)
      && (match Checker.check problem cert with
          | Checker.Valid _ -> true
          | Checker.Invalid _ -> false)
  in
  if not ok then begin
    counter.cert_rejects <- counter.cert_rejects + 1;
    Obs.add "serve.cert.rejected" 1
  end;
  ok

(* --- one per-function solve ---------------------------------------------- *)

let solve_unit ~pool ~counter ~deadline (spec : A.spec) problem (func : P.func)
    =
  check_deadline deadline;
  counter.solves <- counter.solves + 1;
  Obs.add "serve.ilp.solves" 1;
  match Ilp.solve ~presolve:spec.A.presolve ?pool problem with
  | Ilp.Optimal { value; assignment; stats } ->
    counter.warm <- counter.warm + stats.Ilp.warm_hits;
    counter.pivots <- counter.pivots + stats.Ilp.pivots;
    let env = Simplex.assignment_env assignment in
    let counts_pe =
      Array.to_list func.P.blocks
      |> List.filter_map (fun (b : P.block) ->
        let v =
          L.eval env
            (Ipet.Flowvar.var
               (Ipet.Flowvar.Block
                  { ctx = Ipet.Flowvar.root_ctx;
                    func = func.P.name;
                    block = b.P.id }))
        in
        let c = Rat.to_int v in
        if c = 0 then None else Some (b.P.id, c))
    in
    let binding_pe =
      List.filter_map
        (fun (c : Lp.constr) ->
          match c.Lp.rel with
          | Lp.Eq -> None
          | Lp.Le | Lp.Ge ->
            if c.Lp.origin <> "" && Rat.is_zero (L.eval env c.Lp.expr) then
              Some c.Lp.origin
            else None)
        problem.Lp.constraints
    in
    let cert =
      match Certify.certify problem ~witness:assignment ~bound:value with
      | Ok c -> c
      | Error m ->
        fail "%s certificate production failed: %s" func.P.name m
    in
    checked_cert ~counter ~what:func.P.name problem cert;
    { cycles_pe = Rat.to_int value;
      counts_pe;
      binding_pe;
      cert_pe = Cert.to_string cert }
  | Ilp.Infeasible _ -> fail "per-entry ILP for %s is infeasible" func.P.name
  | Ilp.Unbounded _ -> fail "per-entry ILP for %s is unbounded" func.P.name

let analyze_func ~pool ~counter ~deadline (spec : A.spec) layout
    (done_units : (string, unit_result) Hashtbl.t) (func : P.func) =
  let costs =
    Cost.func_bounds ~mach:spec.A.mach ?dcache:spec.A.dcache ~prog:spec.A.prog
      spec.A.cache layout func
  in
  (* direct callees in call order (duplicates kept: the key only needs to be
     a deterministic function of everything the solve reads) *)
  let callees =
    Array.to_list func.P.blocks
    |> List.concat_map (fun b ->
      List.map
        (fun g ->
          let u = Hashtbl.find done_units g in
          (g, u.wcet.cycles_pe, u.bcet.cycles_pe))
        (P.calls_of_block b))
  in
  let key =
    Key.func_key ~mach:(Machine.id spec.A.mach) ~cache:spec.A.cache
      ~dcache:spec.A.dcache ~costs ~annotations:spec.A.loop_bounds ~callees
      func
  in
  (* the unit's two ILPs are built eagerly — a cache hit needs them too,
     to validate the stored certificates against exactly the problems this
     request would otherwise solve. A hit implies the same annotations that
     previously solved (they are part of the key), so the missing-bound
     check cannot newly fire on the warm path *)
  let inst =
    { Ipet.Structural.ctx = Ipet.Flowvar.root_ctx; func; sites = [] }
  in
  let structural = Ipet.Structural.instance_constraints inst ~is_root:true in
  let loop_cs, unbounded =
    Ipet.Annotation.constraints spec.A.prog [ inst ] spec.A.loop_bounds
  in
  (match unbounded with
   | [] -> ()
   | us ->
     let render (u : Ipet.Annotation.unbounded) =
       if u.Ipet.Annotation.header_line > 0 then
         Printf.sprintf "%s (header at line %d)" u.Ipet.Annotation.ufunc
           u.Ipet.Annotation.header_line
       else
         Printf.sprintf "%s (header block %d)" u.Ipet.Annotation.ufunc
           u.Ipet.Annotation.header_block
     in
     fail "missing loop bounds for: %s"
       (String.concat ", " (List.map render us)));
  let constraints = structural @ loop_cs in
  let objective select_cost select_callee =
    Array.fold_left
      (fun acc (b : P.block) ->
        let c =
          List.fold_left
            (fun acc g ->
              acc + select_callee (Hashtbl.find done_units g))
            (select_cost costs.(b.P.id))
            (P.calls_of_block b)
        in
        if c = 0 then acc
        else
          L.add acc
            (L.var ~coeff:(Rat.of_int c)
               (Ipet.Flowvar.name
                  (Ipet.Flowvar.Block
                     { ctx = Ipet.Flowvar.root_ctx;
                       func = func.P.name;
                       block = b.P.id }))))
      L.zero func.P.blocks
  in
  let wcet_problem =
    Lp.make Lp.Maximize
      (objective (fun c -> c.Cost.worst) (fun u -> u.wcet.cycles_pe))
      constraints
  in
  let bcet_problem =
    Lp.make Lp.Minimize
      (objective (fun c -> c.Cost.best) (fun u -> u.bcet.cycles_pe))
      constraints
  in
  let solve () =
    let wcet = solve_unit ~pool ~counter ~deadline spec wcet_problem func in
    let bcet = solve_unit ~pool ~counter ~deadline spec bcet_problem func in
    { key; wcet; bcet }
  in
  (key, (wcet_problem, bcet_problem), solve)

(* --- aggregation --------------------------------------------------------- *)

(* scale each function's per-entry witness by the entry count its callers'
   witnesses induce, callers first; root enters once *)
let aggregate prog root topo (units : (string, unit_result) Hashtbl.t) select =
  let entries = Hashtbl.create 8 in
  Hashtbl.replace entries root 1;
  List.iter
    (fun fname ->
      match Hashtbl.find_opt entries fname with
      | None | Some 0 -> ()
      | Some e ->
        let u = select (Hashtbl.find units fname) in
        let func = P.find_func prog fname in
        List.iter
          (fun (b, c) ->
            List.iter
              (fun g ->
                Hashtbl.replace entries g
                  ((match Hashtbl.find_opt entries g with
                    | Some n -> n
                    | None -> 0)
                   + (e * c)))
              (P.calls_of_block func.P.blocks.(b)))
          u.counts_pe)
    (List.rev topo);
  let counts =
    List.concat_map
      (fun fname ->
        match Hashtbl.find_opt entries fname with
        | None | Some 0 -> []
        | Some e ->
          List.map
            (fun (b, c) -> ((fname, b), e * c))
            (select (Hashtbl.find units fname)).counts_pe)
      topo
    |> List.sort compare
  in
  let binding =
    List.concat_map
      (fun fname ->
        match Hashtbl.find_opt entries fname with
        | None | Some 0 -> []
        | Some _ -> (select (Hashtbl.find units fname)).binding_pe)
      topo
    |> List.sort_uniq compare
  in
  (counts, binding, entries)

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

(* --- whole-program fallback ---------------------------------------------- *)

(* a cached whole-program extreme is validated by rebuilding the monolithic
   ILPs (one per surviving conjunctive set) and checking the stored
   certificate against the set whose digest it names — the winning set of
   the run that produced the entry *)
let monolithic_extreme_valid ~counter problems (e : extreme_pe) =
  counter.cert_checks <- counter.cert_checks + 1;
  Obs.add "serve.cert.checked" 1;
  let ok =
    match Cert.of_string e.cert_pe with
    | Error _ -> false
    | Ok cert ->
      Rat.equal cert.Cert.bound (Rat.of_int e.cycles_pe)
      && List.exists
           (fun p ->
             String.equal (Cert.digest_problem p) cert.Cert.digest
             && (match Checker.check p cert with
                 | Checker.Valid _ -> true
                 | Checker.Invalid _ -> false))
           problems
  in
  if not ok then begin
    counter.cert_rejects <- counter.cert_rejects + 1;
    Obs.add "serve.cert.rejected" 1
  end;
  ok

let monolithic ~pool ~cache ~deadline counter (spec : A.spec) =
  check_deadline deadline;
  let key =
    Key.program_key ~mach:(Machine.id spec.A.mach) ~cache:spec.A.cache
      ~dcache:spec.A.dcache ~root:spec.A.root
      ~annotations:spec.A.loop_bounds ~functional:spec.A.functional spec.A.prog
  in
  let prog_extreme (e : A.extreme) cert_pe =
    { cycles_pe = e.A.cycles;
      counts_pe = [];
      binding_pe = e.A.binding;
      cert_pe }
  in
  let cert_string what (c : A.certificate option) =
    match c with
    | None -> fail "monolithic analysis produced no %s certificate" what
    | Some c ->
      counter.cert_checks <- counter.cert_checks + 1;
      Obs.add "serve.cert.checked" 1;
      (match c.A.verdict with
       | Checker.Valid _ -> Cert.to_string c.A.cert
       | Checker.Invalid reasons ->
         counter.cert_rejects <- counter.cert_rejects + 1;
         Obs.add "serve.cert.rejected" 1;
         fail "%s certificate rejected by the checker: %s" what
           (String.concat "; " reasons))
  in
  let cached = Option.bind cache (fun c -> Cache.get c key) in
  let validated =
    match Option.bind cached (unit_of_json key) with
    | Some u
      when monolithic_extreme_valid ~counter (A.wcet_problems spec) u.wcet
           && monolithic_extreme_valid ~counter (A.bcet_problems spec) u.bcet
      ->
      Some u
    | Some _ ->
      (match cache with Some c -> Cache.remove c key | None -> ());
      None
    | None -> None
  in
  let u, counts =
    match validated with
    | Some u ->
      counter.cached <- counter.cached + 1;
      (* whole-program counts round-trip through a side field *)
      let counts ext =
        match Option.bind cached (Json.member ext) with
        | Some j ->
          Option.value ~default:[]
            (Option.map
               (List.filter_map (function
                 | Json.List [ Json.Str f; Json.Int b; Json.Int c ] ->
                   Some ((f, b), c)
                 | _ -> None))
               (Json.to_list j))
        | None -> []
      in
      (u, (counts "wcet_counts", counts "bcet_counts"))
    | None ->
      counter.solved <- counter.solved + 1;
      let r = A.analyze ?pool ~certify:true spec in
      counter.solves <-
        counter.solves + r.A.wcet_stats.A.sets_solved
        + r.A.bcet_stats.A.sets_solved;
      counter.warm <-
        counter.warm + r.A.wcet_stats.A.warm_hits
        + r.A.bcet_stats.A.warm_hits;
      counter.pivots <-
        counter.pivots + r.A.wcet_stats.A.simplex_pivots
        + r.A.bcet_stats.A.simplex_pivots;
      Obs.add "serve.ilp.solves"
        (r.A.wcet_stats.A.sets_solved + r.A.bcet_stats.A.sets_solved);
      let u =
        { key;
          wcet = prog_extreme r.A.wcet (cert_string "wcet" r.A.wcet_cert);
          bcet = prog_extreme r.A.bcet (cert_string "bcet" r.A.bcet_cert) }
      in
      let counts = (r.A.wcet.A.counts, r.A.bcet.A.counts) in
      (match cache with
       | Some c ->
         let with_counts =
           match unit_to_json u with
           | Json.Obj fields ->
             Json.Obj
               (fields
                @ [ ("wcet_counts", counts_json (fst counts));
                    ("bcet_counts", counts_json (snd counts)) ])
           | j -> j
         in
         Cache.put c key with_counts
       | None -> ());
      (u, counts)
  in
  let wcet_counts, bcet_counts = counts in
  let rep =
    report ~root:spec.A.root ~unit_kind:"program" ~bcet:u.bcet.cycles_pe
      ~wcet:u.wcet.cycles_pe ~wcet_counts ~wcet_binding:u.wcet.binding_pe
      ~bcet_counts ~bcet_binding:u.bcet.binding_pe
      ~units:
        [ unit_row ~name:spec.A.root ~key ~bcet_pe:u.bcet.cycles_pe
            ~wcet_pe:u.wcet.cycles_pe ~bcet_entries:1 ~wcet_entries:1 ]
  in
  rep

(* --- entry point --------------------------------------------------------- *)

let analyze ?pool ?cache ?deadline (spec : A.spec) =
  let counter =
    { cached = 0; solved = 0; solves = 0; warm = 0; pivots = 0;
      cert_checks = 0; cert_rejects = 0 }
  in
  let rep =
    if spec.A.functional <> [] || spec.A.first_miss_refinement then
      monolithic ~pool ~cache ~deadline counter spec
    else begin
      let prog = spec.A.prog in
      if not (Array.exists (fun (f : P.func) -> f.P.name = spec.A.root)
                prog.P.funcs)
      then fail "unknown root function %s" spec.A.root;
      let layout = Layout.make prog in
      let cg = Callgraph.of_program prog in
      let reach = Hashtbl.create 8 in
      let rec mark f =
        if not (Hashtbl.mem reach f) then begin
          Hashtbl.add reach f ();
          List.iter mark (Callgraph.callees cg f)
        end
      in
      mark spec.A.root;
      (* callees first; restricted to functions reachable from the root *)
      let topo =
        List.filter (Hashtbl.mem reach) (Callgraph.topological_order cg)
      in
      let units : (string, unit_result) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun fname ->
          let func = P.find_func prog fname in
          let key, (wcet_problem, bcet_problem), solve =
            analyze_func ~pool ~counter ~deadline spec layout units func
          in
          let u =
            match
              Option.bind
                (Option.bind cache (fun c -> Cache.get c key))
                (unit_of_json key)
            with
            | Some u
              when cached_extreme_valid ~counter wcet_problem u.wcet
                   && cached_extreme_valid ~counter bcet_problem u.bcet ->
              counter.cached <- counter.cached + 1;
              u
            | cached_u ->
              (* an entry whose certificate no longer checks is dropped and
                 the unit re-solved — a cache can be corrupted or tampered
                 with; the proof obligation cannot *)
              (match (cached_u, cache) with
               | Some _, Some c -> Cache.remove c key
               | _ -> ());
              counter.solved <- counter.solved + 1;
              let u = solve () in
              (match cache with
               | Some c -> Cache.put c key (unit_to_json u)
               | None -> ());
              u
          in
          Hashtbl.replace units fname u)
        topo;
      let root_unit = Hashtbl.find units spec.A.root in
      let wcet_counts, wcet_binding, wcet_entries =
        aggregate prog spec.A.root topo units (fun u -> u.wcet)
      in
      let bcet_counts, bcet_binding, bcet_entries =
        aggregate prog spec.A.root topo units (fun u -> u.bcet)
      in
      let entries tbl f =
        match Hashtbl.find_opt tbl f with Some n -> n | None -> 0
      in
      report ~root:spec.A.root ~unit_kind:"func"
        ~bcet:root_unit.bcet.cycles_pe ~wcet:root_unit.wcet.cycles_pe
        ~wcet_counts ~wcet_binding ~bcet_counts ~bcet_binding
        ~units:
          (List.map
             (fun fname ->
               let u = Hashtbl.find units fname in
               unit_row ~name:fname ~key:u.key ~bcet_pe:u.bcet.cycles_pe
                 ~wcet_pe:u.wcet.cycles_pe
                 ~bcet_entries:(entries bcet_entries fname)
                 ~wcet_entries:(entries wcet_entries fname))
             topo)
    end
  in
  ( rep,
    { units_total = counter.cached + counter.solved;
      units_cached = counter.cached;
      units_solved = counter.solved;
      ilp_solves = counter.solves;
      warm_lp_hits = counter.warm;
      simplex_pivots = counter.pivots;
      certs_checked = counter.cert_checks;
      certs_rejected = counter.cert_rejects } )
