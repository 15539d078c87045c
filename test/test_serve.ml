(* The serve subsystem: JSON wire format, content-addressed cache keys
   (the single-edit invalidation property over the fuzz generator), the
   incremental engine against the monolithic analysis, cold/warm report
   identity, LRU eviction, the request protocol, and a spawned-daemon
   socket round trip. *)

module J = Ipet_obs.Json
module Key = Ipet_serve.Key
module Cache = Ipet_serve.Cache
module Incr = Ipet_serve.Incremental
module Protocol = Ipet_serve.Protocol
module Client = Ipet_serve.Client
module A = Ipet.Analysis
module P = Ipet_isa.Prog
module Instr = Ipet_isa.Instr
module Layout = Ipet_isa.Layout
module Cost = Ipet_machine.Cost
module Icache = Ipet_machine.Icache
module Compile = Ipet_lang.Compile
module Frontend = Ipet_lang.Frontend
module Gen = Ipet_fuzz.Gen
module Render = Ipet_fuzz.Render
module Bspec = Ipet_suite.Bspec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let tmp_counter = ref 0

let tmp_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

(* an incremental analysis with a fresh work record: the report and what
   the request did *)
let incr_analyze ?cache spec =
  let stats = Incr.fresh_stats () in
  let rep = Incr.analyze ?cache ~stats spec in
  (rep, stats)

(* --- JSON ----------------------------------------------------------------- *)

let roundtrip v =
  match J.parse (J.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("ints", J.List [ J.Int 0; J.Int (-7); J.Int max_int; J.Int min_int ]);
        ("floats", J.List [ J.Float 1.5; J.Float (-0.125); J.Float 1e100 ]);
        ("str", J.Str "line\nbreak \"quoted\" \\ tab\t control\x01 utf8 \xc3\xa9");
        ("nested", J.Obj [ ("empty_list", J.List []); ("empty_obj", J.Obj []) ]) ]
  in
  check_bool "compound value survives a print/parse round trip" true
    (roundtrip v);
  (* ints and floats stay distinct *)
  check_bool "int is parsed as Int" true (J.parse "42" = Ok (J.Int 42));
  check_bool "exponent is parsed as Float" true
    (J.parse "1e2" = Ok (J.Float 100.0));
  check_bool "integral float reads back as Int" true
    (J.parse (J.to_string (J.Float 3.0)) = Ok (J.Int 3));
  (* unicode escapes, including a surrogate pair *)
  check_bool "\\u escape decodes to UTF-8" true
    (J.parse {|"\u00e9 \ud83d\ude00"|} = Ok (J.Str "\xc3\xa9 \xf0\x9f\x98\x80"))

let test_json_nonfinite () =
  (* JSON has no nan/infinity literal; the printer must not pass a bogus
     measurement off as a real zero, so non-finite degrades to null — and
     the output must still parse *)
  List.iter
    (fun f ->
      let printed = J.to_string (J.List [ J.Float f; J.Int 1 ]) in
      check_string
        (Printf.sprintf "%h prints as null" f)
        "[null,1]" printed;
      check_bool "printed form re-parses" true
        (J.parse printed = Ok (J.List [ J.Null; J.Int 1 ])))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_errors () =
  let rejects s = match J.parse s with Ok _ -> false | Error _ -> true in
  List.iter
    (fun s -> check_bool (Printf.sprintf "rejects %S" s) true (rejects s))
    [ ""; "nul"; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2";
      "{\"a\":1}garbage"; "\"\\q\""; "\"\xc3"; "\"\\ud800\""; "\"\\uzz00\"";
      String.make 600 '[' ^ String.make 600 ']' ]

let json_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
    let leaf =
      oneof
        [ return J.Null;
          map (fun b -> J.Bool b) bool;
          map (fun i -> J.Int i) int;
          map (fun s -> J.Str s) (string_size (int_bound 12));
          map
            (fun i -> J.Float (float_of_int ((2 * i) + 1) /. 8.0))
            (int_bound 1_000_000);
          (* integral floats print as integers (1e20 as 1e+20) *)
          map (fun f -> J.Float f) (oneofl [ 0.; -2.; 1e20 ]) ]
    in
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
          map
            (fun l -> J.Obj l)
            (list_size (int_bound 4)
               (pair (string_size (int_bound 8)) (self (n / 2)))) ])

let rec has_integral_float = function
  | J.Float f -> Float.is_integer f
  | J.List l -> List.exists has_integral_float l
  | J.Obj fields -> List.exists (fun (_, v) -> has_integral_float v) fields
  | _ -> false

(* an integral float may come back as an Int, so for those values the
   contract is that printing is a fixpoint *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"random values survive a print/parse round trip"
    ~count:200 (QCheck.make json_gen) (fun v ->
      if not (has_integral_float v) then roundtrip v
      else
        let printed = J.to_string v in
        match J.parse printed with
        | Ok v' -> J.to_string v' = printed
        | Error _ -> false)

(* Hostile input: random bytes, truncations and single-byte mutations of
   printed values must come back as [Ok] or [Error], never as an exception;
   nesting far past the parser's depth cap must be an [Error] (not a
   [Stack_overflow]). The flag marks inputs that must be rejected. *)
let hostile_json_gen =
  let open QCheck.Gen in
  let printed = map J.to_string json_gen in
  let nested =
    map2
      (fun depth obj ->
        let opener, closer = if obj then ({|{"k":|}, "}") else ("[", "]") in
        let buf = Buffer.create (depth * 6) in
        for _ = 1 to depth do Buffer.add_string buf opener done;
        Buffer.add_char buf '0';
        for _ = 1 to depth do Buffer.add_string buf closer done;
        (Buffer.contents buf, true))
      (int_range 1_000 100_000) bool
  in
  frequency
    [ (4, map (fun s -> (s, false)) (string_size ~gen:char (int_bound 64)));
      (4,
       printed >>= fun s ->
       map (fun k -> (String.sub s 0 k, false)) (int_bound (String.length s)));
      (4,
       printed >>= fun s ->
       map2
         (fun i c ->
           (String.mapi (fun j d -> if j = i then c else d) s, false))
         (int_bound (max 0 (String.length s - 1)))
         char);
      (1, nested) ]

let prop_json_parse_total =
  QCheck.Test.make ~name:"json: hostile input is Ok or Error, never raises"
    ~count:1000
    (QCheck.make
       ~print:(fun (s, _) ->
         Printf.sprintf "%S" (if String.length s > 200 then String.sub s 0 200 else s))
       hostile_json_gen)
    (fun (s, must_fail) ->
      match J.parse s with
      | Ok _ -> not must_fail
      | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "parse raised %s" (Printexc.to_string e))

(* --- cache keys ----------------------------------------------------------- *)

let compile_case seed =
  let case = Gen.case seed in
  match Frontend.compile_string (Render.program case.Gen.prog) with
  | Ok compiled -> (case.Gen.cache, compiled.Compile.prog)
  | Error { Frontend.message; _ } ->
    Alcotest.failf "fuzz case %d does not compile: %s" seed message

(* bump the first integer-immediate ALU operand found in the function *)
let mutate_imm (f : P.func) =
  let changed = ref false in
  let blocks =
    Array.map
      (fun (b : P.block) ->
        { b with
          P.instrs =
            Array.map
              (fun i ->
                if !changed then i
                else
                  match i with
                  | Instr.Alu (op, r, a, Instr.Imm n) ->
                    changed := true;
                    Instr.Alu (op, r, a, Instr.Imm (n + 1))
                  | i -> i)
              b.P.instrs })
      f.P.blocks
  in
  if !changed then Some { f with P.blocks = blocks } else None

(* distinct serializations must have distinct digests (and identical
   serializations identical digests) across everything the run hashes *)
let seen_keys : (string, string) Hashtbl.t = Hashtbl.create 64

let record_key bytes key =
  (match Hashtbl.find_opt seen_keys key with
   | Some bytes' ->
     check_string "equal keys imply equal serializations" bytes' bytes
   | None -> Hashtbl.add seen_keys key bytes);
  key

(* a function's two unit objectives, as the incremental engine builds
   them: the function alone, each call charged [callee] *)
let unit_objectives ?callee costs (f : P.func) =
  let inst =
    { Ipet.Structural.ctx = Ipet.Flowvar.root_ctx; func = f; sites = [] }
  in
  ( A.objective ?callee costs [ inst ] Ipet_lp.Lp_problem.Maximize,
    A.objective ?callee costs [ inst ] Ipet_lp.Lp_problem.Minimize )

let func_key_checked ?(mach = "e32") (wcet, bcet) f =
  record_key
    (Key.func_bytes ~mach ~annotations:[] ~wcet ~bcet f)
    (Key.func_key ~mach ~annotations:[] ~wcet ~bcet f)

let case_costs ~cache prog = A.costs (A.spec ~cache ~root:"main" prog)

(* the single-edit property: changing one immediate in one function changes
   that function's key and nobody else's — even when, as here, the edited
   function's ILP (its objectives) is held unchanged *)
let prop_single_edit_invalidation =
  QCheck.Test.make
    ~name:"an immediate edit invalidates exactly the edited function's key"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cache, prog = compile_case seed in
      let costs = case_costs ~cache prog in
      let keys =
        Array.map
          (fun f ->
            let objs = unit_objectives costs f in
            (f, objs, func_key_checked objs f))
          prog.P.funcs
      in
      match List.find_map mutate_imm (Array.to_list prog.P.funcs) with
      | None -> true (* no immediate anywhere: nothing to edit *)
      | Some mutated ->
        Array.for_all
          (fun ((f : P.func), objs, key) ->
            if f.P.name = mutated.P.name then
              (* same objectives — only the compiled bytes change the key *)
              func_key_checked objs mutated <> key
            else func_key_checked objs f = key)
          keys)

(* changing only the machine id changes every digest the run hashes —
   holding the program, objectives, cache geometry, annotations and
   constraints fixed — so two machines can never share a cache entry even
   when their timings happen to agree on the program at hand *)
let prop_mach_changes_every_key =
  QCheck.Test.make
    ~name:"changing only the machine id changes every key" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cache, prog = compile_case seed in
      let costs = case_costs ~cache prog in
      let program_key ~mach =
        Key.program_key ~mach ~cache ~dcache:None ~first_miss:false
          ~root:"main" ~annotations:[] ~functional:[] prog
      in
      Array.for_all
        (fun f ->
          let objs = unit_objectives costs f in
          func_key_checked ~mach:"e32" objs f
          <> func_key_checked ~mach:"m7" objs f)
        prog.P.funcs
      && program_key ~mach:"e32" <> program_key ~mach:"m7")

(* --- incremental vs monolithic ------------------------------------------- *)

let bounds_of_report rep =
  match
    ( Option.bind (J.member "bcet" rep) J.to_int,
      Option.bind (J.member "wcet" rep) J.to_int )
  with
  | Some b, Some w -> (b, w)
  | _ -> Alcotest.fail "report lacks integer bcet/wcet"

(* the per-function decomposition on the whole suite, both machines,
   first-miss off and on: the benchmarks' functionality constraints are
   dropped, so every request is decomposed per function *)
let test_matches_monolithic () =
  List.iter
    (fun mach ->
      List.iter
        (fun (b : Bspec.t) ->
          List.iter
            (fun first_miss_refinement ->
              let spec =
                { (Bspec.spec ~mach b) with
                  A.functional = [];
                  first_miss_refinement }
              in
              let name =
                Printf.sprintf "%s on %s, first-miss %b" b.Bspec.name
                  (Ipet_machine.Machine.id mach) first_miss_refinement
              in
              let rep, stats = incr_analyze spec in
              Alcotest.(check (pair int int))
                (name ^ ": incremental bounds equal the monolithic analysis")
                (A.estimated_bound spec) (bounds_of_report rep);
              check_bool (name ^ ": decomposed per function") true
                (stats.Incr.units_total > 0
                 && J.member "unit" rep = Some (J.Str "func")))
            [ false; true ])
        Ipet_suite.Suite.all)
    [ Ipet_machine.Machine.e32; Ipet_machine.Machine.m7 ]

(* the same on generated programs, each with its own cache geometry and
   the loop bounds the fuzzing oracle infers *)
let prop_incremental_matches_monolithic =
  QCheck.Test.make
    ~name:"incremental bounds equal the monolithic analysis on generated programs"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = Gen.case seed in
      let source = Render.program case.Gen.prog in
      let ast, _ = Frontend.parse_and_check source in
      let prog =
        (Frontend.compile_string_exn ~optimize:false source).Compile.prog
      in
      let loop_bounds = Ipet.Autobound.infer ast in
      List.for_all
        (fun mach ->
          List.for_all
            (fun first_miss_refinement ->
              let spec =
                A.spec ~mach ~cache:case.Gen.cache ~loop_bounds
                  ~first_miss_refinement ~root:"main" prog
              in
              let mono = A.estimated_bound spec in
              let rep, _ = incr_analyze spec in
              let incr = bounds_of_report rep in
              if mono = incr && J.member "unit" rep = Some (J.Str "func") then
                true
              else
                QCheck.Test.fail_reportf
                  "seed %d on %s, first-miss %b: monolithic [%d, %d], \
                   incremental [%d, %d]"
                  seed (Ipet_machine.Machine.id mach) first_miss_refinement
                  (fst mono) (snd mono) (fst incr) (snd incr))
            [ false; true ])
        [ Ipet_machine.Machine.e32; Ipet_machine.Machine.m7 ])

let test_functional_fallback () =
  (* check_data's functionality constraints couple functions, so the
     incremental engine must fall back to one whole-program unit — and
     still reproduce the monolithic bounds *)
  let spec = Bspec.spec (Ipet_suite.Suite.find "check_data") in
  let mono = A.estimated_bound spec in
  let rep, stats = incr_analyze spec in
  Alcotest.(check (pair int int))
    "fallback bounds equal the monolithic analysis" mono
    (bounds_of_report rep);
  check_bool "analyzed as a single program unit" true
    (J.member "unit" rep = Some (J.Str "program") && stats.Incr.units_total = 1)

(* a two-function program whose leaf we can edit without changing its
   per-entry interval (addition costs the same whatever the immediate) *)
let edit_source imm =
  Printf.sprintf
    {|int leaf(int x) {
  return (x + %d);
}

int main(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < 8; i = i + 1) {
    acc = acc + leaf(i);
  }
  return acc;
}
|}
    imm

let edit_spec source =
  match Frontend.compile_string source with
  | Error _ -> Alcotest.fail "edit example does not compile"
  | Ok compiled ->
    let line = Bspec.line_containing ~source "for (" in
    A.spec
      ~loop_bounds:[ Ipet.Annotation.loop ~func:"main" ~line ~lo:8 ~hi:8 ]
      ~root:"main" compiled.Compile.prog

(* the caller's key hashes its objectives, which charge each call its
   callee's per-entry extreme: a callee interval that changes the
   caller's objective changes the caller's key *)
let test_key_callee_interval () =
  let spec = edit_spec (edit_source 3) in
  let costs = A.costs spec in
  let main = P.find_func spec.A.prog "main" in
  let key charge =
    let objs = unit_objectives ~callee:(fun _ -> charge) costs main in
    (fst objs, func_key_checked objs main)
  in
  let w10, k10 = key 10 and w11, k11 = key 11 in
  check_bool "the callee's extreme is in the caller's objective" false
    (Ipet_lp.Linexpr.equal w10 w11);
  check_bool "a callee interval change changes the caller's key" true
    (k10 <> k11);
  check_string "same callee intervals, same key" k10 (snd (key 10))

(* main's loop makes no calls and fits the cache, so the first-miss
   refinement applies to it; leaf has no loop *)
let first_miss_source =
  {|int buf[32];

int leaf(int x) {
  return (x + 1);
}

int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 32; i = i + 1)
    s = s + buf[i];
  return leaf(s);
}
|}

let test_first_miss_key () =
  let prog = (Frontend.compile_string_exn first_miss_source).Compile.prog in
  let line = Bspec.line_containing ~source:first_miss_source "for (i = 0" in
  let spec first_miss_refinement =
    A.spec
      ~loop_bounds:[ Ipet.Annotation.loop ~func:"main" ~line ~lo:32 ~hi:32 ]
      ~first_miss_refinement ~root:"main" prog
  in
  let run first_miss =
    let rep, _ = incr_analyze (spec first_miss) in
    let keys =
      List.map
        (fun r ->
          ( Option.get (Option.bind (J.member "name" r) J.to_str),
            Option.get (Option.bind (J.member "key" r) J.to_str) ))
        (Option.get (Option.bind (J.member "units" rep) J.to_list))
    in
    (snd (bounds_of_report rep), keys)
  in
  let plain_wcet, plain = run false and refined_wcet, refined = run true in
  check_bool "the refinement tightens main's WCET" true
    (refined_wcet < plain_wcet);
  check_int "the refined WCET is the monolithic one"
    (snd (A.estimated_bound (spec true))) refined_wcet;
  check_bool "first-miss changes the key of the function with the loop" true
    (List.assoc "main" plain <> List.assoc "main" refined);
  check_string "a function with no eligible loop keeps its key"
    (List.assoc "leaf" plain) (List.assoc "leaf" refined);
  let program_key first_miss =
    Key.program_key ~mach:"e32" ~cache:Icache.i960kb ~dcache:None ~first_miss
      ~root:"main" ~annotations:[] ~functional:[] prog
  in
  check_bool "first-miss changes the program unit's key" true
    (program_key false <> program_key true)

(* --- cold/warm cache behavior -------------------------------------------- *)

(* one request per unit kind — per-function units, and the program unit
   under functionality constraints — plus per-function units under the
   first-miss refinement *)
let cache_specs () =
  [ ("func", edit_spec (edit_source 3));
    ("functional", Bspec.spec (Ipet_suite.Suite.find "check_data"));
    ( "first-miss",
      { (edit_spec (edit_source 3)) with A.first_miss_refinement = true } ) ]

let test_cold_warm_identical () =
  List.iter
    (fun (name, spec) ->
      let cache =
        Cache.create ~dir:(tmp_dir ("serve-coldwarm-" ^ name))
          ~cap_bytes:(16 * 1024 * 1024)
      in
      let uncached, _ = incr_analyze spec in
      let cold, cold_stats = incr_analyze ~cache spec in
      let warm, warm_stats = incr_analyze ~cache spec in
      check_string (name ^ ": cached report is byte-identical to the uncached one")
        (J.to_string uncached) (J.to_string cold);
      check_string (name ^ ": warm report is byte-identical to the cold one")
        (J.to_string cold) (J.to_string warm);
      check_bool (name ^ ": cold run solved every unit") true
        (cold_stats.Incr.units_solved = cold_stats.Incr.units_total
         && cold_stats.Incr.ilp_solves > 0);
      check_int (name ^ ": warm run solved nothing") 0
        warm_stats.Incr.units_solved;
      check_int (name ^ ": warm run invoked no solver") 0
        warm_stats.Incr.ilp_solves)
    (("des", { (Bspec.spec (Ipet_suite.Suite.find "des")) with A.functional = [] })
     :: cache_specs ())

let test_one_function_edit () =
  let cache =
    Cache.create ~dir:(tmp_dir "serve-edit") ~cap_bytes:(16 * 1024 * 1024)
  in
  let _, cold = incr_analyze ~cache (edit_spec (edit_source 3)) in
  check_int "cold run solves both functions" 2 cold.Incr.units_solved;
  (* a size-preserving, timing-neutral edit to leaf: x+3 -> x+5 keeps
     leaf's interval, so main's key (costs + callee intervals) is
     unchanged and only leaf is re-solved *)
  let _, incr = incr_analyze ~cache (edit_spec (edit_source 5)) in
  check_int "the edit re-solves only the edited function" 1
    incr.Incr.units_solved;
  check_int "the caller is served from the cache" 1 incr.Incr.units_cached;
  let _, warm = incr_analyze ~cache (edit_spec (edit_source 5)) in
  check_int "repeating the edited request solves nothing" 0
    warm.Incr.units_solved

(* --- LRU eviction --------------------------------------------------------- *)

let test_lru_eviction () =
  let dir = tmp_dir "serve-lru" in
  let k i = Digest.to_hex (Digest.string (string_of_int i)) in
  let payload i =
    J.Obj [ ("n", J.Int i); ("pad", J.Str (String.make 40 'x')) ]
  in
  let entry_bytes = String.length (J.to_string (payload 0)) in
  let cache = Cache.create ~dir ~cap_bytes:(2 * entry_bytes) in
  Cache.put cache (k 1) (payload 1);
  Cache.put cache (k 2) (payload 2);
  (* refresh 1 so 2 is now least recently used *)
  check_bool "k1 present" true (Cache.get cache (k 1) <> None);
  Cache.put cache (k 3) (payload 3);
  let s = Cache.stats cache in
  check_int "one entry was evicted" 1 s.Cache.evictions;
  check_int "two entries remain" 2 s.Cache.entries;
  check_bool "the least-recently-used entry went" true
    (Cache.get cache (k 2) = None);
  check_bool "the refreshed entry stayed" true (Cache.get cache (k 1) <> None);
  (* recency and entries survive a restart via the index file *)
  let reopened = Cache.create ~dir ~cap_bytes:(2 * entry_bytes) in
  check_int "reopened cache sees the surviving entries" 2
    (Cache.stats reopened).Cache.entries;
  check_bool "entries are readable after reopen" true
    (Cache.get reopened (k 3) = Some (payload 3))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A put appends its line to the index instead of rewriting it: below the
   compaction point the index keeps its inode and grows by a line per
   refreshed key. A reopened cache reads each key's latest line, skips a
   last line a crash tore, and evicts in the recency order it had *)
let test_index_appends () =
  let dir = tmp_dir "serve-index-append" in
  let index = Filename.concat dir "index" in
  let k i = Digest.to_hex (Digest.string (string_of_int i)) in
  let payload i =
    J.Obj [ ("n", J.Int i); ("pad", J.Str (String.make 40 'x')) ]
  in
  let cap_bytes = 3 * String.length (J.to_string (payload 0)) in
  let lines () =
    List.length (String.split_on_char '\n' (read_file index)) - 1
  in
  let cache = Cache.create ~dir ~cap_bytes in
  Cache.put cache (k 1) (payload 1);
  let inode = (Unix.stat index).Unix.st_ino in
  Cache.put cache (k 2) (payload 2);
  Cache.put cache (k 3) (payload 3);
  check_bool "k1 present" true (Cache.get cache (k 1) <> None);
  (* refreshes k3, and appends k1's refresh too: oldest first 2, 1, 3 *)
  Cache.put cache (k 3) (payload 3);
  check_int "puts kept the index file" inode (Unix.stat index).Unix.st_ino;
  check_int "magic line and five appended lines" 6 (lines ());
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 index
  in
  output_string oc (k 2 ^ " 99");
  close_out oc;
  let reopened = Cache.create ~dir ~cap_bytes in
  check_int "reopened cache sees every entry" 3
    (Cache.stats reopened).Cache.entries;
  Cache.put reopened (k 4) (payload 4);
  Cache.put reopened (k 5) (payload 5);
  List.iter
    (fun (i, kept) ->
      check_bool
        (Printf.sprintf "k%d %s" i (if kept then "kept" else "evicted"))
        kept
        (Sys.file_exists (Filename.concat dir (k i ^ ".json"))))
    [ (2, false); (1, false); (3, true); (4, true); (5, true) ]

(* Fills a cache, checks that warm hits re-prove their certificates, then
   applies [rewrite] to the WCET certificate of one cached entry: the engine
   must notice, drop the entry, and re-solve — never serve a bound it cannot
   re-prove *)
let cert_self_heal ~name ~spec rewrite =
  let cache = Cache.create ~dir:(tmp_dir name) ~cap_bytes:(16 * 1024 * 1024) in
  let cold_rep, cold = incr_analyze ~cache spec in
  check_int "cold run proves every bound it computed"
    (2 * cold.Incr.units_solved) cold.Incr.certs_checked;
  check_int "cold run rejects nothing" 0 cold.Incr.certs_rejected;
  let warm_rep, warm = incr_analyze ~cache spec in
  check_int "warm run solves nothing" 0 warm.Incr.units_solved;
  check_int "warm bounds are re-proven, not trusted"
    (2 * warm.Incr.units_cached) warm.Incr.certs_checked;
  check_int "warm run rejects nothing" 0 warm.Incr.certs_rejected;
  check_string "warm report is byte-identical" (J.to_string cold_rep)
    (J.to_string warm_rep);
  let dir = Cache.dir cache in
  let entry =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare |> List.hd
  in
  let path = Filename.concat dir entry in
  (* an entry is its schema and the two certificates, each in the one
     certificate encoding *)
  (match J.parse (read_file path) with
   | Ok (J.Obj [ ("schema", J.Int s); ("wcet", w); ("bcet", b) ])
     when s = Key.schema ->
     let module C = Ipet_cert.Certificate in
     List.iter
       (fun c ->
         check_string "a cached certificate is to_json of itself"
           (J.to_string c)
           (J.to_string (C.to_json (Result.get_ok (C.of_json c)))))
       [ w; b ]
   | _ -> Alcotest.fail "cache entry is not {schema, wcet, bcet}");
  let tamper = function
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | "wcet", c -> ("wcet", rewrite c)
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "cache entry is not an object"
  in
  (match J.parse (read_file path) with
   | Ok j -> write_file path (J.to_string (tamper j))
   | Error m -> Alcotest.failf "unparsable cache entry: %s" m);
  let healed_rep, healed = incr_analyze ~cache spec in
  check_bool "the tampered certificate was rejected" true
    (healed.Incr.certs_rejected >= 1);
  check_int "exactly the tampered unit was re-solved" 1
    healed.Incr.units_solved;
  check_string "the healed report is byte-identical" (J.to_string cold_rep)
    (J.to_string healed_rep)

let test_cert_self_heal () =
  List.iter
    (fun (name, spec) ->
      cert_self_heal ~name:("serve-cert-heal-" ^ name) ~spec (fun _ ->
          J.Str "tampered"))
    (cache_specs ())

(* a certificate that parses up to an arithmetic fault (a zero denominator)
   must be rejected like any other, not escape the cache-hit check *)
let test_cert_zero_denominator_heals () =
  List.iter
    (fun (name, spec) ->
      cert_self_heal ~name:("serve-cert-zero-den-" ^ name) ~spec (function
        | J.Obj fields ->
          J.Obj
            (List.map
               (fun (k, v) -> (k, if k = "bound" then J.Str "1/0" else v))
               fields)
        | _ -> Alcotest.fail "a cached certificate is an object"))
    (cache_specs ())

(* a stored bound with thousands of digits is rejected and re-solved in
   time: printing it in the checker's message was once cubic in its
   length, and a 2000-digit bound stalled a warm query for over 40 s *)
let test_cert_long_bound_heals () =
  List.iter
    (fun (name, spec) ->
      cert_self_heal ~name:("serve-cert-long-bound-" ^ name) ~spec (function
        | J.Obj fields ->
          J.Obj
            (List.map
               (fun (k, v) ->
                 (k, if k = "bound" then J.Str (String.make 2000 '1') else v))
               fields)
        | _ -> Alcotest.fail "a cached certificate is an object"))
    (cache_specs ())

(* every single-leaf damage of a JSON value, with its path: an integer
   plus one, a string replaced, a list without its last element *)
let rec mutations path =
  let inside l label rebuild =
    List.concat
      (List.mapi
         (fun i x ->
           List.map
             (fun (p, x') ->
               (p, rebuild (List.mapi (fun j y -> if i = j then x' else y) l)))
             (mutations (label i) x))
         l)
  in
  function
  | J.Int n -> [ (path, J.Int (n + 1)) ]
  | J.Str _ -> [ (path, J.Str "tampered") ]
  | J.List l ->
    (match List.rev l with
     | [] -> []
     | _ :: rest -> [ (path ^ "[-1]", J.List (List.rev rest)) ])
    @ inside l (Printf.sprintf "%s[%d]" path) (fun l -> J.List l)
  | J.Obj fields ->
    let keys = List.map fst fields in
    inside (List.map snd fields)
      (fun i -> path ^ "." ^ List.nth keys i)
      (fun vs -> J.Obj (List.combine keys vs))
  | J.Null | J.Bool _ | J.Float _ -> []

(* a cached entry is only ever a claim the checker re-proves: whatever one
   leaf of it says, the warm report is the cold one *)
let test_no_entry_field_changes_the_report () =
  List.iter
    (fun (name, spec) ->
      let cache =
        Cache.create ~dir:(tmp_dir ("serve-entry-tamper-" ^ name))
          ~cap_bytes:(16 * 1024 * 1024)
      in
      let cold, _ = incr_analyze ~cache spec in
      let keys =
        match Option.bind (J.member "units" cold) J.to_list with
        | Some rows ->
          List.filter_map (fun r -> Option.bind (J.member "key" r) J.to_str) rows
        | None -> Alcotest.fail "report lacks its unit table"
      in
      List.iter
        (fun key ->
          let entry =
            match Cache.get cache key with
            | Some e -> e
            | None -> Alcotest.failf "%s: unit %s was not cached" name key
          in
          let store v =
            Cache.remove cache key;
            Cache.put cache key v
          in
          List.iter
            (fun (path, tampered) ->
              store tampered;
              let warm, _ = incr_analyze ~cache spec in
              check_string
                (Printf.sprintf "%s: report with %s damaged" name path)
                (J.to_string cold) (J.to_string warm);
              store entry)
            (mutations "entry" entry))
        keys)
    (cache_specs ())

let test_tmp_sweep () =
  (* a writer that dies between open and rename leaves "*.tmp" files the
     entry namespace can never reference; reopening the cache sweeps them
     and keeps the real entries *)
  let dir = tmp_dir "serve-tmp-sweep" in
  let k i = Digest.to_hex (Digest.string (string_of_int i)) in
  let cache = Cache.create ~dir ~cap_bytes:(1024 * 1024) in
  Cache.put cache (k 1) (J.Obj [ ("n", J.Int 1) ]);
  let orphan name =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc "half-written";
    close_out oc
  in
  orphan (k 2 ^ ".json.tmp");
  orphan "index.tmp";
  let reopened = Cache.create ~dir ~cap_bytes:(1024 * 1024) in
  check_bool "orphaned entry temp was swept" false
    (Sys.file_exists (Filename.concat dir (k 2 ^ ".json.tmp")));
  check_bool "orphaned index temp was swept" false
    (Sys.file_exists (Filename.concat dir "index.tmp"));
  check_bool "real entries survive the sweep" true
    (Cache.get reopened (k 1) = Some (J.Obj [ ("n", J.Int 1) ]))

(* File-level damage to a filled cache, each fault on a cache of its own:
   the reopened cache serves the cold report byte-identically, re-solves
   only the unit whose entry the fault lost, raises nothing, and keeps
   every entry on disk under the cap. [edit_spec] has two function units *)
let test_file_faults () =
  let spec = edit_spec (edit_source 3) in
  let entries dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  let victim dir = List.hd (entries dir) in
  let truncate path =
    let s = read_file path in
    write_file path (String.sub s 0 (String.length s / 2))
  in
  (* the index as it was before the victim's [put] flushed it *)
  let unlist dir =
    let key = Filename.chop_suffix (victim dir) ".json" in
    let index = Filename.concat dir "index" in
    String.split_on_char '\n' (read_file index)
    |> List.filter (fun l -> not (String.starts_with ~prefix:key l))
    |> String.concat "\n"
    |> write_file index
  in
  let faults =
    [ ( "an entry truncated mid-JSON", 1,
        fun dir -> truncate (Filename.concat dir (victim dir)) );
      ("the index truncated", 0, fun dir -> truncate (Filename.concat dir "index"));
      ( "the index replaced by garbage", 0,
        fun dir -> write_file (Filename.concat dir "index") "\000 not an index\n" );
      ( "a kill between an entry's temp write and its rename", 1,
        fun dir ->
          let e = victim dir in
          unlist dir;
          Sys.rename (Filename.concat dir e) (Filename.concat dir (e ^ ".tmp")) );
      ("a kill between an entry's rename and the index flush", 0, unlist) ]
  in
  List.iteri
    (fun i (fault, resolved, damage) ->
      let dir = tmp_dir (Printf.sprintf "serve-file-fault-%d" i) in
      let cold, _ =
        incr_analyze
          ~cache:(Cache.create ~dir ~cap_bytes:(16 * 1024 * 1024))
          spec
      in
      damage dir;
      let cache = Cache.create ~dir ~cap_bytes:(16 * 1024 * 1024) in
      let healed, stats = incr_analyze ~cache spec in
      check_string (fault ^ ": the report is the cold one") (J.to_string cold)
        (J.to_string healed);
      check_int (fault ^ ": units re-solved") resolved stats.Incr.units_solved;
      check_int (fault ^ ": no certificate rejected") 0 stats.Incr.certs_rejected;
      let files = entries dir in
      check_int (fault ^ ": one entry file per unit") 2 (List.length files);
      check_int (fault ^ ": every entry file is under the cap")
        (List.fold_left
           (fun n f -> n + String.length (read_file (Filename.concat dir f)))
           0 files)
        (Cache.stats cache).Cache.bytes;
      check_bool (fault ^ ": no temp file is left") false
        (Array.exists (fun f -> Filename.check_suffix f ".tmp") (Sys.readdir dir));
      let _, again = incr_analyze ~cache spec in
      check_int (fault ^ ": the next request is warm") 0 again.Incr.units_solved)
    faults

(* --- protocol ------------------------------------------------------------- *)

let pconfig = Protocol.make ()

let response_code response =
  match J.parse response with
  | Error _ -> Alcotest.failf "unparsable response: %s" response
  | Ok j ->
    (match J.member "ok" j with
     | Some (J.Bool true) -> "ok"
     | _ ->
       (match
          Option.bind
            (Option.bind (J.member "error" j) (J.member "code"))
            J.to_str
        with
        | Some code -> code
        | None -> Alcotest.failf "error without code: %s" response))

let analyze_request ?(extra = []) source =
  J.to_string
    (J.Obj
       ([ ("v", J.Int Protocol.version);
          ("op", J.Str "analyze");
          ("source", J.Str source) ]
        @ extra))

let test_protocol_errors () =
  let code line =
    let response, outcome = Protocol.handle_line pconfig line in
    check_bool "errors never stop the server" true
      (outcome = Protocol.Continue);
    response_code response
  in
  check_string "garbage" "proto" (code "this is not json");
  check_string "missing v" "proto" (code {|{"op":"hello"}|});
  check_string "future version" "proto" (code {|{"v":99,"op":"hello"}|});
  check_string "unknown op" "proto" (code {|{"v":1,"op":"frobnicate"}|});
  check_string "analyze without source" "proto"
    (code {|{"v":1,"op":"analyze"}|});
  check_string "unparsable source" "input"
    (code (analyze_request "int main( {"));
  check_string "no root" "input"
    (code (analyze_request "int f() {\n  return 1;\n}\n"));
  check_string "unknown root" "input"
    (code
       (analyze_request "int f() {\n  return 1;\n}\n"
          ~extra:[ ("root", J.Str "g") ]));
  check_string "bad annotations" "input"
    (code
       (analyze_request "int main() {\n  return 1;\n}\n"
          ~extra:[ ("annotations", J.Str "loop main oops") ]));
  check_string "missing loop bound" "analysis"
    (code
       (analyze_request
          "int main(int n) {\n\
           \  int i;\n\
           \  for (i = 0; i < n; i = i + 1) {\n\
           \  }\n\
           \  return i;\n\
           }\n"
          ~extra:[ ("root", J.Str "main") ]));
  check_string "zero deadline" "timeout"
    (code
       (analyze_request "int main() {\n  return 1;\n}\n"
          ~extra:
            [ ("root", J.Str "main");
              ("options", J.Obj [ ("timeout_ms", J.Int 0) ]) ]))

(* a fetch geometry the i-cache model cannot hold is the client's input
   error, saying what is wrong; [line_bytes = 0] used to surface as an
   internal Division_by_zero *)
let test_protocol_bad_geometry () =
  List.iter
    (fun (size_bytes, line_bytes, miss_penalty, what) ->
      let request =
        analyze_request "int main() {\n  return 1;\n}\n"
          ~extra:
            [ ("root", J.Str "main");
              ( "options",
                J.Obj
                  [ ( "icache",
                      J.Obj
                        [ ("size_bytes", J.Int size_bytes);
                          ("line_bytes", J.Int line_bytes);
                          ("miss_penalty", J.Int miss_penalty) ] ) ] ) ]
      in
      let response, _ = Protocol.handle_line pconfig request in
      check_string (what ^ ": code") "input" (response_code response);
      let message =
        Result.to_option (J.parse response)
        |> Fun.flip Option.bind (J.member "error")
        |> Fun.flip Option.bind (J.member "message")
        |> Fun.flip Option.bind J.to_str
        |> Option.value ~default:""
      in
      check_bool (what ^ ": message says what is wrong") true
        (String.starts_with ~prefix:("icache: " ^ what) message))
    [ (512, 0, 8, "line size 0");
      (512, 24, 8, "line size 24");
      (0, 16, 8, "capacity 0");
      (64, 128, 8, "capacity 64");
      (512, 16, -1, "miss penalty -1");
      (512, 16, 3074457345618258603, "miss penalty 3074457345618258603") ]

(* counts or cycles beyond int63 reach the client as an analysis error *)
let test_protocol_overflow () =
  let source = (Ipet_suite.Suite.find "piksrt").Bspec.source in
  List.iter
    (fun hi ->
      let annotations =
        Printf.sprintf "root piksrt\nloop piksrt 5 9 9\nloop piksrt 8 0 %s\n" hi
      in
      let response, _ =
        Protocol.handle_line pconfig
          (analyze_request source ~extra:[ ("annotations", J.Str annotations) ])
      in
      check_string ("inner bound " ^ hi) "analysis" (response_code response))
    [ "4611686018427387903"; "10000000000000000" ]

(* a constraint literal above 10^18 in the annotations is an input error
   that names it, not a bound computed from a wrapped int *)
let test_protocol_oversized_literal () =
  let source = (Ipet_suite.Suite.find "piksrt").Bspec.source in
  let annotations =
    "root piksrt\nloop piksrt 5 9 9\nloop piksrt 8 0 9\n\
     constr piksrt x5 <= 9223372036854775808\n"
  in
  let response, _ =
    Protocol.handle_line pconfig
      (analyze_request source ~extra:[ ("annotations", J.Str annotations) ])
  in
  check_string "code" "input" (response_code response);
  check_bool "names the literal" true
    (Test_lp.contains ~needle:"literal 9223372036854775808 is larger than 10^18"
       response)

let edit_annotations = "root main\nloop main 8 8 8\n"

let test_protocol_requests () =
  let handle line = Protocol.handle_line pconfig line in
  let hello, outcome = handle {|{"v":1,"op":"hello","id":7}|} in
  check_bool "hello continues" true (outcome = Protocol.Continue);
  (match J.parse hello with
   | Ok j ->
     check_bool "hello reports the build version" true
       (J.member "version" j = Some (J.Str Ipet_serve.Version.version));
     check_bool "hello echoes the id" true (J.member "id" j = Some (J.Int 7))
   | Error _ -> Alcotest.fail "unparsable hello");
  let response, _ =
    handle
      (analyze_request (edit_source 3)
         ~extra:[ ("annotations", J.Str edit_annotations) ])
  in
  check_string "analyze succeeds" "ok" (response_code response);
  (match J.parse response with
   | Ok j ->
     let report = Option.get (J.member "report" j) in
     check_bool "report has a positive wcet" true
       (match bounds_of_report report with b, w -> b > 0 && w >= b);
     check_bool "stats carry exactly the documented keys" true
       (match J.member "stats" j with
        | Some (J.Obj kvs) ->
          List.map fst kvs
          = [ "units_total"; "units_cached"; "units_solved"; "ilp_solves";
              "simplex_pivots"; "certs_checked"; "certs_rejected"; "wall_ms" ]
        | _ -> false)
   | Error _ -> Alcotest.fail "unparsable analyze response");
  let _, outcome = handle {|{"v":1,"op":"shutdown"}|} in
  check_bool "shutdown stops the server" true (outcome = Protocol.Shutdown)

(* --- trace propagation ----------------------------------------------------- *)

let trace_of response =
  match J.parse response with
  | Ok j -> Option.bind (J.member "trace" j) J.to_str
  | Error _ -> None

let test_trace_roundtrip () =
  let pc = Protocol.make () in
  let handle line = fst (Protocol.handle_line pc line) in
  let echoed name line expected_code =
    let response = handle line in
    check_string (name ^ " outcome") expected_code (response_code response);
    check_bool (name ^ " echoes the trace id") true
      (trace_of response = Some ("t-" ^ name))
  in
  echoed "hello" {|{"v":1,"op":"hello","trace":"t-hello"}|} "ok";
  echoed "error" {|{"v":1,"op":"frobnicate","trace":"t-error"}|} "proto";
  echoed "version"
    {|{"v":99,"op":"hello","trace":"t-version"}|} "proto";
  echoed "timeout"
    (analyze_request "int main() {\n  return 1;\n}\n"
       ~extra:
         [ ("trace", J.Str "t-timeout");
           ("root", J.Str "main");
           ("options", J.Obj [ ("timeout_ms", J.Int 0) ]) ])
    "timeout";
  (* a request without a trace field gets no trace echo *)
  check_bool "no trace in, no trace out" true
    (trace_of (handle {|{"v":1,"op":"hello"}|}) = None)

(* --- metrics / recent / stats ops ------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

(* [field] of the registry metric [name] (with label [op], when given),
   read through the daemon's metrics op; 0 when it is absent *)
let registry_value handle ?op name field =
  match J.parse (handle {|{"v":1,"op":"metrics"}|}) with
  | Error _ -> Alcotest.fail "unparsable metrics response"
  | Ok j ->
    let items =
      Option.value ~default:[]
        (Option.bind
           (Option.bind (J.member "metrics" j) (J.member "metrics"))
           J.to_list)
    in
    let wanted m =
      J.member "name" m = Some (J.Str name)
      && (match op with
          | None -> true
          | Some op ->
            Option.bind (J.member "labels" m) (J.member "op")
            = Some (J.Str op))
    in
    Option.value ~default:0.0
      (Option.bind (Option.bind (List.find_opt wanted items) (J.member field))
         J.to_float)

let test_observability_ops () =
  let pc = Protocol.make () in
  let handle line = fst (Protocol.handle_line pc line) in
  ignore (handle {|{"v":1,"op":"hello"}|});
  ignore (handle {|{"v":1,"op":"frobnicate","trace":"bad-req"}|});
  (* recent: newest first, with the failed request's error taxonomy code *)
  (match J.parse (handle {|{"v":1,"op":"recent"}|}) with
   | Error _ -> Alcotest.fail "unparsable recent response"
   | Ok j ->
     let events =
       Option.get (Option.bind (J.member "events" j) J.to_list)
     in
     check_bool "recent reports the recorded requests" true
       (List.length events >= 2);
     let seqs =
       List.map
         (fun e -> Option.get (Option.bind (J.member "seq" e) J.to_int))
         events
     in
     check_bool "events are newest-first" true
       (List.sort (fun a b -> compare b a) seqs = seqs);
     let bad =
       List.find_opt
         (fun e -> J.member "id" e = Some (J.Str "bad-req"))
         events
     in
     (match bad with
      | None -> Alcotest.fail "failed request missing from recent"
      | Some e ->
        check_bool "failed request carries its error code" true
          (J.member "error" e = Some (J.Str "proto"));
        check_bool "event carries its op" true
          (J.member "op" e = Some (J.Str "frobnicate"))));
  (* metrics: a JSON registry snapshot plus the Prometheus text *)
  (match J.parse (handle {|{"v":1,"op":"metrics"}|}) with
   | Error _ -> Alcotest.fail "unparsable metrics response"
   | Ok j ->
     let prom =
       Option.get (Option.bind (J.member "prometheus" j) J.to_str)
     in
     check_bool "prometheus text exposes the latency histogram" true
       (contains prom "serve_latency_seconds");
     check_bool "metrics payload is structured JSON" true
       (match Option.bind (J.member "metrics" j) (J.member "metrics") with
        | Some (J.List _) -> true
        | _ -> false));
  (* stats: uniform totals, flight occupancy and cache placeholder *)
  (match J.parse (handle {|{"v":1,"op":"stats"}|}) with
   | Error _ -> Alcotest.fail "unparsable stats response"
   | Ok j ->
     let int name = Option.bind (J.member name j) J.to_int in
     check_bool "stats counts every request including itself" true
       (match int "requests" with Some n -> n >= 4 | None -> false);
     check_bool "stats counts errors" true
       (match int "errors" with Some n -> n >= 1 | None -> false);
     check_bool "stats reports flight occupancy" true
       (match int "flight_recorded" with Some n -> n >= 3 | None -> false);
     check_bool "stats reports cert counters" true
       (int "certs_checked" = Some 0 && int "certs_rejected" = Some 0);
     check_bool "cache is null when disabled" true
       (J.member "cache" j = Some J.Null));
  (* the daemon's metrics agree with what its responses report. The
     registry is process-global, so every comparison is a delta *)
  let metric = registry_value handle in
  let source = "int main() {\n  return 1;\n}\n" in
  let analyze options =
    analyze_request source
      ~extra:[ ("root", J.Str "main"); ("options", J.Obj options) ]
  in
  (* a request with a functionality constraint takes the whole-program
     unit, whose fresh solve checks each of its two certificates once *)
  let checked_before = metric "serve.cert.checked" "value" in
  let certs_checked =
    match
      J.parse
        (handle
           (analyze_request source
              ~extra:
                [ ("root", J.Str "main");
                  ("annotations", J.Str "constr main x0 = 1") ]))
    with
    | Error _ -> Alcotest.fail "unparsable analyze response"
    | Ok j ->
      Option.get
        (Option.bind (Option.bind (J.member "stats" j) (J.member "certs_checked"))
           J.to_int)
  in
  check_int "the program unit checks both certificates" 2 certs_checked;
  check_int "serve.cert.checked grows by the response's certs_checked"
    certs_checked
    (int_of_float (metric "serve.cert.checked" "value" -. checked_before));
  (* the daemon times only its handler, so its analyze p99 cannot exceed
     the slowest round trip a client saw, give or take one histogram
     bucket. Earlier analyses in this process may have been slower than
     any of these, so the histogram starts empty *)
  Ipet_obs.Metrics.reset Ipet_obs.Obs.metrics;
  let n = 20 in
  let slowest =
    List.fold_left
      (fun acc _ ->
        let t0 = Unix.gettimeofday () in
        check_string "analyze succeeds" "ok" (response_code (handle (analyze [])));
        Float.max acc (Unix.gettimeofday () -. t0))
      0.0 (List.init n Fun.id)
  in
  check_int "the analyze latency histogram counts every request" n
    (int_of_float (metric ~op:"analyze" "serve.latency_seconds" "count"));
  let p99 = metric ~op:"analyze" "serve.latency_seconds" "p99" in
  let bucket = slowest *. (Float.pow 2.0 (1.0 /. 16.0) -. 1.0) in
  check_bool
    (Printf.sprintf "daemon p99 %.6fs within the slowest round trip %.6fs"
       p99 slowest)
    true
    (p99 > 0.0 && p99 <= slowest +. bucket)

(* a request's work is counted once, in one record, and that record is
   kept when the request fails: the stats op's totals, the metrics
   registry and the recent events agree on every certificate verdict.
   The last request serves [f] from the cache, checking its two stored
   certificates, then runs out of time on the edited [main]; its event
   still shows both *)
let test_one_record_invariant () =
  let cache =
    Cache.create ~dir:(tmp_dir "serve-one-record") ~cap_bytes:(1024 * 1024)
  in
  let pc = Protocol.make ~cache () in
  let handle line = fst (Protocol.handle_line pc line) in
  let metric name = registry_value handle name "value" in
  let request ?(options = []) trace k =
    analyze_request
      (Printf.sprintf
         "int f(int x) {\n  return (x + 1);\n}\n\n\
          int main() {\n  return f(%d);\n}\n"
         k)
      ~extra:
        [ ("trace", J.Str trace); ("root", J.Str "main");
          ("options", J.Obj options) ]
  in
  let counts =
    [ ("certs_checked", "serve.cert.checked");
      ("certs_rejected", "serve.cert.rejected") ]
  in
  let before = List.map (fun (_, name) -> metric name) counts in
  check_string "a success" "ok" (response_code (handle (request "t-ok" 1)));
  check_string "an input error" "input"
    (response_code (handle (analyze_request "int main( {")));
  check_string "the cached callee, then no time for main" "timeout"
    (response_code
       (handle (request "t-late" 2 ~options:[ ("timeout_ms", J.Int (-1)) ])));
  let parse line =
    match J.parse (handle line) with
    | Ok j -> j
    | Error m -> Alcotest.failf "unparsable response: %s" m
  in
  let int name j =
    Option.value ~default:(-1) (Option.bind (J.member name j) J.to_int)
  in
  let totals = parse {|{"v":1,"op":"stats"}|} in
  let events =
    Option.value ~default:[]
      (Option.bind
         (J.member "events" (parse {|{"v":1,"op":"recent"}|}))
         J.to_list)
  in
  List.iter2
    (fun (field, name) before ->
      check_int (field ^ ": registry = stats op") (int field totals)
        (int_of_float (metric name -. before));
      check_int (field ^ ": recent events = stats op") (int field totals)
        (List.fold_left (fun acc e -> acc + int field e) 0 events))
    counts before;
  check_int "four fresh checks, then two stored ones" 6
    (int "certs_checked" totals);
  match List.find_opt (fun e -> J.member "id" e = Some (J.Str "t-late")) events
  with
  | None -> Alcotest.fail "the timed-out request is missing from recent"
  | Some e ->
    check_bool "the timed-out event keeps its error code" true
      (J.member "error" e = Some (J.Str "timeout"));
    check_int "the timed-out event shows its cached unit" 1
      (int "units_cached" e);
    check_int "the timed-out event shows its two checks" 2
      (int "certs_checked" e)

(* a cache write that fails loses only the cache: with the directory gone
   between two identical requests, the second misses on both units,
   solves them and still answers; they stay out of the table, and the
   next request solves them again *)
let test_cache_write_failure () =
  let dir = tmp_dir "serve-cache-gone" in
  let cache = Cache.create ~dir ~cap_bytes:(1024 * 1024) in
  let pc = Protocol.make ~cache () in
  let request =
    analyze_request
      "int f(int x) {\n  return (x + 1);\n}\n\nint main() {\n  return f(1);\n}\n"
      ~extra:[ ("root", J.Str "main") ]
  in
  let solved what =
    let response = fst (Protocol.handle_line pc request) in
    check_string (what ^ ": answers") "ok" (response_code response);
    match J.parse response with
    | Ok j ->
      Option.value ~default:(-1)
        (Option.bind (J.member "stats" j) (fun s ->
             Option.bind (J.member "units_solved" s) J.to_int))
    | Error m -> Alcotest.failf "unparsable response: %s" m
  in
  check_int "the first request solves both units" 2 (solved "first");
  check_int "both are stored" 2 (Cache.stats cache).Cache.entries;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  check_int "without a directory, both are solved again" 2 (solved "second");
  check_int "and neither is stored" 0 (Cache.stats cache).Cache.entries;
  check_int "the next request solves them again" 2 (solved "third")

(* --- flight recorder -------------------------------------------------------- *)

module Flight = Ipet_serve.Flight

let flight_event i =
  { Flight.time = float_of_int i;
    id = Printf.sprintf "req-%d" i;
    op = "analyze";
    root = "main";
    digests = [ "abc" ];
    stats =
      { (Incr.fresh_stats ()) with
        Incr.units_total = 2; units_cached = 1; units_solved = 1;
        ilp_solves = 2; simplex_pivots = 40; certs_checked = 2 };
    latency_ms = 1.5;
    error = (if i mod 2 = 0 then None else Some "analysis") }

let test_flight_ring_wrap () =
  let t = Flight.create ~cap:4 () in
  check_int "empty recorder has no events" 0 (List.length (Flight.recent t));
  for i = 0 to 9 do
    Flight.record t (flight_event i)
  done;
  check_int "total counts every record" 10 (Flight.total t);
  let recent = Flight.recent t in
  check_bool "only the last cap events survive, newest first" true
    (List.map fst recent = [ 9; 8; 7; 6 ]);
  check_bool "newest event is the last recorded" true
    ((List.hd recent |> snd).Flight.id = "req-9");
  check_bool "recent ~n clips" true
    (List.map fst (Flight.recent ~n:2 t) = [ 9; 8 ]);
  let keys ev =
    match Flight.event_json ev with
    | J.Obj kvs -> List.map fst kvs
    | _ -> Alcotest.fail "an event is not a JSON object"
  in
  let common =
    [ "seq"; "time"; "id"; "op"; "root"; "digests"; "units_total";
      "units_cached"; "units_solved"; "ilp_solves"; "simplex_pivots";
      "certs_checked"; "certs_rejected"; "latency_ms" ]
  in
  check_bool "a failed event carries exactly the documented keys" true
    (keys (9, flight_event 9) = common @ [ "error" ]);
  check_bool "a rootless success omits root and error" true
    (keys (0, { (flight_event 0) with Flight.root = "" })
     = List.filter (( <> ) "root") common);
  (* the dump is oldest-first JSONL, one parseable object per line *)
  let lines =
    Flight.dump t |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "dump holds one line per surviving event" 4 (List.length lines);
  List.iter
    (fun line ->
      match J.parse line with
      | Ok (J.Obj _) -> ()
      | _ -> Alcotest.failf "dump line is not a JSON object: %s" line)
    lines;
  (match J.parse (List.hd lines) with
   | Ok j ->
     check_bool "dump is oldest-first" true
       (J.member "id" j = Some (J.Str "req-6"));
     check_bool "error events keep their taxonomy code" true
       (J.member "error" j = None || J.member "error" j = Some (J.Str "analysis"))
   | Error m -> Alcotest.failf "unparsable dump line: %s" m);
  (* write_dump lands the same content on disk *)
  let path = Filename.concat (tmp_dir "serve-flight") "dump.jsonl" in
  Flight.write_dump t path;
  check_string "write_dump writes the dump" (Flight.dump t) (read_file path)

(* --- access log ------------------------------------------------------------- *)

let test_access_log_rotation () =
  let module Al = Ipet_serve.Access_log in
  let dir = tmp_dir "serve-access" in
  let path = Filename.concat dir "access.jsonl" in
  let log = Al.open_ ~path ~cap_bytes:1024 in
  let line i =
    J.to_string
      (J.Obj
         [ ("id", J.Str (Printf.sprintf "req-%03d" i));
           ("pad", J.Str (String.make 80 'x')) ])
  in
  for i = 0 to 29 do
    Al.write log (line i)
  done;
  Al.close log;
  check_bool "current file exists" true (Sys.file_exists path);
  check_bool "rotation produced the .1 generation" true
    (Sys.file_exists (path ^ ".1"));
  let parse_lines p =
    read_file p |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match J.parse l with
           | Ok j -> Option.get (Option.bind (J.member "id" j) J.to_str)
           | Error m -> Alcotest.failf "unparsable access line %S: %s" l m)
  in
  let current = parse_lines path and previous = parse_lines (path ^ ".1") in
  check_bool "both generations hold whole lines" true
    (current <> [] && previous <> []);
  (* the newest entry is always in the current file, and nothing was lost
     across the last rotation boundary *)
  check_string "last write is in the current file" "req-029"
    (List.nth current (List.length current - 1));
  let boundary = List.hd current in
  let last_prev = List.nth previous (List.length previous - 1) in
  check_string "rotation loses no line"
    (Printf.sprintf "req-%03d"
       (int_of_string (String.sub last_prev 4 3) + 1))
    boundary;
  (* reopening appends to the current generation *)
  let log = Al.open_ ~path ~cap_bytes:(1024 * 1024) in
  Al.write log (line 30);
  Al.close log;
  check_string "reopen appends" "req-030"
    (let all = parse_lines path in
     List.nth all (List.length all - 1))

(* --- spawned daemon over a real socket ------------------------------------ *)

let await_file path =
  let rec go tries =
    if Sys.file_exists path then ()
    else if tries = 0 then Alcotest.failf "%s never appeared" path
    else begin
      ignore (Unix.select [] [] [] 0.1);
      go (tries - 1)
    end
  in
  go 100

(* starts [cinderella serve] on a socket in [dir], its cache beside it,
   and runs [f socket pid] once the socket is up; the daemon is killed
   afterwards unless [f] has already reaped it *)
let with_daemon ?(args = []) dir f =
  (* the test binary lives in _build/default/test, the daemon next door *)
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/cinderella.exe"
  in
  let socket = Filename.concat dir "serve.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list
         ([ exe; "serve"; "--socket"; socket; "--cache-dir";
            Filename.concat dir "cache" ]
          @ args))
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (* idempotent: the normal path has already reaped the daemon *)
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      await_file socket;
      f socket pid)

(* a shutdown request, then the daemon must exit 0 *)
let shutdown_daemon socket pid =
  check_string "shutdown request" "ok"
    (response_code
       (Option.get (Client.one_shot ~socket {|{"v":1,"op":"shutdown"}|})));
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "daemon did not exit cleanly"

let test_socket_e2e () =
  with_daemon (tmp_dir "serve-e2e") @@ fun socket pid ->
  let t = Client.connect socket in
  check_string "handshake" "ok"
    (response_code
       (Option.get (Client.request t {|{"v":1,"op":"hello"}|})));
  (* a malformed request neither kills the daemon nor the connection *)
  check_string "malformed request on a live connection" "proto"
    (response_code (Option.get (Client.request t "garbage")));
  check_string "the same connection still works" "ok"
    (response_code
       (Option.get
          (Client.request t
             (analyze_request (edit_source 3)
                ~extra:[ ("annotations", J.Str edit_annotations) ]))));
  Client.close t;
  shutdown_daemon socket pid;
  check_bool "socket file was removed" false (Sys.file_exists socket)

let write_string fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* the request cap [cinderella serve] runs with *)
let max_request_bytes = 16 * 1024 * 1024

(* requests are framed on newlines however their bytes arrive: lines that
   end mid-read or span reads, and a partial line past the cap *)
let test_socket_framing () =
  with_daemon (tmp_dir "serve-framing") @@ fun socket pid ->
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    (* a daemon that never answers fails the test instead of hanging it *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
    (fd, Unix.in_channel_of_descr fd)
  in
  let hello = {|{"v":1,"op":"hello"}|} in
  let request =
    analyze_request (edit_source 4)
      ~extra:[ ("annotations", J.Str edit_annotations) ]
  in
  let report response =
    match J.parse response with
    | Ok j -> J.to_string (Option.get (J.member "report" j))
    | Error m -> Alcotest.failf "unparsable response %s: %s" response m
  in
  let whole = Option.get (Client.one_shot ~socket request) in
  check_string "a request written whole" "ok" (response_code whole);
  (* two requests in 7-byte pieces, with a pause after each so the
     daemon reads them one by one *)
  let fd, ic = connect () in
  let bytes = hello ^ "\n" ^ request ^ "\n" in
  let rec send off =
    if off < String.length bytes then begin
      write_string fd
        (String.sub bytes off (min 7 (String.length bytes - off)));
      ignore (Unix.select [] [] [] 0.001);
      send (off + 7)
    end
  in
  send 0;
  check_string "a hello written in pieces" "ok"
    (response_code (input_line ic));
  check_string "a request written in pieces parses as one written whole"
    (report whole) (report (input_line ic));
  close_in ic;
  (* one byte past the cap and no newline: refused, connection closed *)
  let fd, ic = connect () in
  write_string fd (String.make (max_request_bytes + 1) 'x');
  let refusal = input_line ic in
  check_string "an over-cap request" "proto" (response_code refusal);
  check_bool "the refusal names the cap" true
    (contains refusal
       (Printf.sprintf "request exceeds %d bytes" max_request_bytes));
  check_bool "the daemon closes the connection" true
    (match input_line ic with _ -> false | exception End_of_file -> true);
  close_in ic;
  check_string "a fresh connection still gets hello" "ok"
    (response_code (Option.get (Client.one_shot ~socket hello)));
  shutdown_daemon socket pid

(* a client connected to a bare listening socket in [dir], and the
   accepted server end of the connection *)
let client_pair dir =
  let path = Filename.concat dir "client.sock" in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 1;
      let t = Client.connect path in
      let fd, _ = Unix.accept sock in
      Unix.unlink path;
      (t, fd))

(* responses are framed on newlines however their bytes arrive: two lines
   in one read come back one per call, a partial line at end of file comes
   back as it is, and a line of more than 4 MiB written in small pieces by
   another process comes back whole, the line after it intact *)
let test_client_framing () =
  let dir = tmp_dir "client-framing" in
  let recv what expected t =
    Alcotest.(check (option string)) what expected (Client.recv_line t)
  in
  let t, fd = client_pair dir in
  write_string fd "first\nsecond\ntail";
  Unix.close fd;
  recv "the first line of one read" (Some "first") t;
  recv "the second line of the same read" (Some "second") t;
  recv "a partial line at end of file" (Some "tail") t;
  recv "then end of file" None t;
  Client.close t;
  let t, fd = client_pair dir in
  let long =
    String.init ((4 * 1024 * 1024) + 4099) (fun i -> Char.chr (97 + (i mod 26)))
  in
  (match Unix.fork () with
   | 0 ->
     let piece = 1000 in
     let rec go off =
       if off < String.length long then begin
         write_string fd
           (String.sub long off (min piece (String.length long - off)));
         go (off + piece)
       end
     in
     (try go 0; write_string fd "\nafter\n" with Unix.Unix_error _ -> ());
     Unix._exit 0
   | pid ->
     Unix.close fd;
     let got = Client.recv_line t in
     check_bool "a 4 MiB line written in pieces comes back whole" true
       (got = Some long);
     recv "the line after it" (Some "after") t;
     recv "then end of file" None t;
     Client.close t;
     ignore (Unix.waitpid [] pid))

(* one daemon session, the same source under both machine models: the
   bounds differ, each machine's warm run is served from its own cache
   entries, and neither machine's cold run ever hits the other's *)
let test_socket_both_machines () =
  with_daemon (tmp_dir "serve-two-machines") @@ fun socket pid ->
  let t = Client.connect socket in
  let analyze label mach =
    let response =
      Option.get
        (Client.request t
           (analyze_request (edit_source 3)
              ~extra:
                [ ("mach", J.Str mach);
                  ("annotations", J.Str edit_annotations) ]))
    in
    check_string (label ^ " analyze succeeds") "ok"
      (response_code response);
    match J.parse response with
    | Ok j ->
      let stat name =
        Option.get
          (Option.bind
             (Option.bind (J.member "stats" j) (J.member name))
             J.to_int)
      in
      ( Option.get (J.member "report" j),
        stat "units_cached",
        stat "units_solved" )
    | Error _ -> Alcotest.failf "unparsable %s response" label
  in
  let e32_cold, e32_cold_hits, _ = analyze "e32 cold" "e32" in
  let m7_cold, m7_cold_hits, m7_cold_solved = analyze "m7 cold" "m7" in
  check_bool "the two machines bound the program differently" true
    (bounds_of_report e32_cold <> bounds_of_report m7_cold);
  check_int "e32 cold run hits nothing" 0 e32_cold_hits;
  check_int "m7 cold run never hits the e32 entries" 0 m7_cold_hits;
  check_bool "m7 cold run solves its own units" true (m7_cold_solved > 0);
  let e32_warm, e32_warm_hits, e32_warm_solved =
    analyze "e32 warm" "e32"
  in
  let m7_warm, m7_warm_hits, m7_warm_solved = analyze "m7 warm" "m7" in
  check_string "e32 warm report is byte-identical"
    (J.to_string e32_cold) (J.to_string e32_warm);
  check_string "m7 warm report is byte-identical"
    (J.to_string m7_cold) (J.to_string m7_warm);
  check_bool "e32 warm run is served from its own entries" true
    (e32_warm_hits > 0 && e32_warm_solved = 0);
  check_bool "m7 warm run is served from its own entries" true
    (m7_warm_hits > 0 && m7_warm_solved = 0);
  (* an unknown machine id is a protocol error, not a crash *)
  check_string "unknown machine id" "proto"
    (response_code
       (Option.get
          (Client.request t
             (analyze_request (edit_source 3)
                ~extra:
                  [ ("mach", J.Str "z80");
                    ("annotations", J.Str edit_annotations) ]))));
  Client.close t;
  shutdown_daemon socket pid

(* graceful SIGTERM must flush every sink: trace-out, metrics-out, the
   access log and the flight-recorder dump *)
let test_sigterm_flush () =
  let dir = tmp_dir "serve-sigterm" in
  let trace_out = Filename.concat dir "trace.json" in
  let metrics_out = Filename.concat dir "metrics.json" in
  let access = Filename.concat dir "access.jsonl" in
  let flight = Filename.concat dir "flight.jsonl" in
  with_daemon dir
    ~args:
      [ "--trace-out"; trace_out; "--metrics-out"; metrics_out;
        "--access-log"; access; "--flight-dump"; flight ]
  @@ fun socket pid ->
  let response =
    Option.get
      (Client.one_shot ~socket
         (analyze_request (edit_source 3)
            ~extra:
              [ ("trace", J.Str "sig-1");
                ("annotations", J.Str edit_annotations) ]))
  in
  check_string "analyze over the socket" "ok" (response_code response);
  check_bool "daemon echoes the trace id" true
    (trace_of response = Some "sig-1");
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> Alcotest.fail "daemon did not exit cleanly on SIGTERM");
  check_bool "socket file was removed" false (Sys.file_exists socket);
  (* every sink must exist and parse *)
  let jsonl_ids path =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match J.parse l with
           | Ok j -> Option.bind (J.member "id" j) J.to_str
           | Error m ->
             Alcotest.failf "unparsable line in %s: %s" path m)
  in
  check_bool "access log recorded the request" true
    (List.mem (Some "sig-1") (jsonl_ids access));
  check_bool "flight dump recorded the request" true
    (List.mem (Some "sig-1") (jsonl_ids flight));
  (match J.parse (read_file metrics_out) with
   | Ok j ->
     check_bool "metrics-out is a versioned document" true
       (J.member "version" j = Some (J.Int 1))
   | Error m -> Alcotest.failf "unparsable metrics-out: %s" m);
  match J.parse (read_file trace_out) with
  | Ok j ->
    check_bool "trace-out holds trace events" true
      (match J.member "traceEvents" j with
       | Some (J.List _) -> true
       | _ -> false)
  | Error m -> Alcotest.failf "unparsable trace-out: %s" m

let suite =
  [ Alcotest.test_case "json: compound round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: non-finite floats print as null" `Quick
      test_json_nonfinite;
    Alcotest.test_case "json: malformed inputs are rejected" `Quick
      test_json_errors;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_single_edit_invalidation;
    QCheck_alcotest.to_alcotest prop_mach_changes_every_key;
    Alcotest.test_case "key: callee intervals are hashed" `Quick
      test_key_callee_interval;
    Alcotest.test_case "key: first-miss changes the refined function's key"
      `Quick test_first_miss_key;
    Alcotest.test_case "incremental bounds match the monolithic analysis"
      `Quick test_matches_monolithic;
    QCheck_alcotest.to_alcotest prop_incremental_matches_monolithic;
    Alcotest.test_case "functionality constraints fall back to one unit"
      `Quick test_functional_fallback;
    Alcotest.test_case "cold and warm reports are byte-identical" `Quick
      test_cold_warm_identical;
    Alcotest.test_case "no field of a cached entry changes the report" `Quick
      test_no_entry_field_changes_the_report;
    Alcotest.test_case "a one-function edit re-solves one function" `Quick
      test_one_function_edit;
    Alcotest.test_case "cache: LRU eviction and restart" `Quick
      test_lru_eviction;
    Alcotest.test_case "cache: puts append to the index" `Quick
      test_index_appends;
    Alcotest.test_case "cache: orphaned temp files are swept on open" `Quick
      test_tmp_sweep;
    Alcotest.test_case "cache: file faults heal to the cold report" `Quick
      test_file_faults;
    Alcotest.test_case "certificates: warm hits re-prove, tampering heals"
      `Quick test_cert_self_heal;
    Alcotest.test_case
      "certificates: a zero denominator in a cached certificate heals" `Quick
      test_cert_zero_denominator_heals;
    Alcotest.test_case "protocol: every failure is a structured error" `Quick
      test_protocol_errors;
    Alcotest.test_case "protocol: hello, analyze, shutdown" `Quick
      test_protocol_requests;
    Alcotest.test_case "protocol: trace ids echo on every outcome" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "protocol: metrics, recent and stats ops" `Quick
      test_observability_ops;
    Alcotest.test_case "protocol: one record per request, kept on failure"
      `Quick test_one_record_invariant;
    Alcotest.test_case "flight recorder: ring wrap and JSONL dump" `Quick
      test_flight_ring_wrap;
    Alcotest.test_case "access log: size rotation keeps whole lines" `Quick
      test_access_log_rotation;
    Alcotest.test_case "daemon: socket round trip" `Quick test_socket_e2e;
    Alcotest.test_case "daemon: both machines in one session" `Quick
      test_socket_both_machines;
    Alcotest.test_case "daemon: SIGTERM flushes every sink" `Quick
      test_sigterm_flush;
    QCheck_alcotest.to_alcotest prop_json_parse_total;
    Alcotest.test_case "protocol: int63 overflow is an analysis error" `Quick
      test_protocol_overflow;
    Alcotest.test_case "cache: a failed write still answers" `Quick
      test_cache_write_failure;
    Alcotest.test_case "protocol: an oversized constraint literal is an input error"
      `Quick test_protocol_oversized_literal;
    Alcotest.test_case "protocol: a bad fetch geometry is an input error"
      `Quick test_protocol_bad_geometry;
    Alcotest.test_case
      "certificates: a 2000-digit bound in a cached certificate heals" `Quick
      test_cert_long_bound_heals;
    Alcotest.test_case "daemon: requests framed however their bytes arrive"
      `Quick test_socket_framing;
    Alcotest.test_case "client: responses framed however their bytes arrive"
      `Quick test_client_framing ]
