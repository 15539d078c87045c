(* The soundness fuzzing harness: corpus replay, deterministic generation,
   a live fuzz run, the shrinker, and the ALU differential property that
   keeps the constant folder and the simulator in lock-step. *)

module Rng = Ipet_fuzz.Rng
module Gen = Ipet_fuzz.Gen
module Render = Ipet_fuzz.Render
module Oracle = Ipet_fuzz.Oracle
module Shrink = Ipet_fuzz.Shrink
module Driver = Ipet_fuzz.Driver
module Ast = Ipet_lang.Ast
module I = Ipet_isa.Instr
module V = Ipet_isa.Value
module Icache = Ipet_machine.Icache
module Machine = Ipet_machine.Machine
module Cost = Ipet_machine.Cost
module Lp = Ipet_lp.Lp_problem
module Rat = Ipet_num.Rat

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- corpus replay ------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* replay metadata lives in leading comment lines: [// cache: SIZE LINE
   PENALTY] selects the cache the failure needed, [// mach: ID] the
   machine model; anything unstated falls back to the machine's own
   defaults (e32, its i960KB cache) *)
let corpus_header source =
  String.split_on_char '\n' source |> List.filteri (fun i _ -> i < 4)

let corpus_cache source =
  List.find_map
    (fun line ->
      try
        Scanf.sscanf line "// cache: %d %d %d"
          (fun size_bytes line_bytes miss_penalty ->
            Some { Icache.size_bytes; line_bytes; miss_penalty })
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (corpus_header source)

let corpus_mach source =
  List.find_map
    (fun line ->
      try
        Scanf.sscanf line "// mach: %s" (fun id ->
            match Machine.of_string id with Ok m -> Some m | Error _ -> None)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (corpus_header source)
  |> Option.value ~default:Machine.e32

(* cwd is test/ under [dune runtest] but the project root under
   [dune exec test/test_main.exe] *)
let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat dir f)

let replay ~mach path source =
  match Oracle.check ~mach ?cache:(corpus_cache source) source with
  | Oracle.Pass _ -> ()
  | Oracle.Fail f ->
    Alcotest.fail
      (Printf.sprintf "%s on %s: %s: %s" path (Machine.id mach)
         (Oracle.kind_name f.Oracle.kind) f.Oracle.detail)

let test_corpus_replay () =
  let files = corpus_files () in
  check_bool "corpus is not empty" true (files <> []);
  List.iter
    (fun path ->
      let source = read_file path in
      replay ~mach:(corpus_mach source) path source)
    files

(* every finding — whatever machine it was found on — must also hold as a
   passing case on the other target: the oracle's invariants are
   machine-independent *)
let test_corpus_replay_m7 () =
  List.iter
    (fun path -> replay ~mach:Machine.m7 path (read_file path))
    (corpus_files ())

(* --- deterministic generation -------------------------------------------- *)

(* splitmix64 reference values: the stream must be identical on every OCaml
   version, or printed seeds would not replay across the CI matrix *)
let test_rng_reference_stream () =
  let r = Rng.create 1 in
  List.iter
    (fun expected ->
      check_bool "splitmix64 reference" true (Rng.next64 r = expected))
    [ 0xc0e16b163a85a4dcL; 0x890acd8dd443c47cL; 0xb3889d8a6dc47761L;
      0x6a0398e528f0ae6aL ]

let test_rng_ranges () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.range r 3 9 in
    check_bool "range in bounds" true (v >= 3 && v <= 9);
    let w = Rng.int r 5 in
    check_bool "int in bounds" true (w >= 0 && w < 5)
  done

let test_generation_deterministic () =
  let a = Gen.case 42 and b = Gen.case 42 in
  check_string "same seed, same program" (Render.program a.Gen.prog)
    (Render.program b.Gen.prog);
  check_bool "same seed, same cache" true (a.Gen.cache = b.Gen.cache);
  let c = Gen.case 43 in
  check_bool "different seed, different program" true
    (Render.program a.Gen.prog <> Render.program c.Gen.prog)

(* one parse canonicalizes (the parser folds minus into integer literals);
   after that, render/reparse is a fixpoint — shrunk programs printed in a
   report reproduce the same AST when replayed from the file *)
let test_render_reparse_fixpoint () =
  for seed = 1 to 10 do
    let case = Gen.case seed in
    let ast1, _ =
      Ipet_lang.Frontend.parse_and_check (Render.program case.Gen.prog)
    in
    let src = Render.program ast1 in
    let ast2, _ = Ipet_lang.Frontend.parse_and_check src in
    check_string
      (Printf.sprintf "seed %d render/reparse fixpoint" seed)
      src (Render.program ast2)
  done

(* --- the oracle classifies hand-made failures ----------------------------- *)

let test_oracle_classifies () =
  (match Oracle.check "int main() { return (1 / 0); }" with
   | Oracle.Fail { Oracle.kind = Oracle.Sim_crash; _ } -> ()
   | Oracle.Fail f -> Alcotest.fail ("expected sim-crash, got " ^ Oracle.kind_name f.Oracle.kind)
   | Oracle.Pass _ -> Alcotest.fail "expected sim-crash, got pass");
  (match Oracle.check "int g0 = 3;\nint main() { while (g0) { g0 = g0 - 1; } return 0; }" with
   | Oracle.Fail { Oracle.kind = Oracle.Analysis_reject; _ } -> ()
   | Oracle.Fail f -> Alcotest.fail ("expected analysis-reject, got " ^ Oracle.kind_name f.Oracle.kind)
   | Oracle.Pass _ -> Alcotest.fail "expected analysis-reject, got pass");
  (match Oracle.check "int main() { return 4294967296; }" with
   | Oracle.Fail { Oracle.kind = Oracle.Frontend_reject; _ } -> ()
   | Oracle.Fail f -> Alcotest.fail ("expected frontend-reject, got " ^ Oracle.kind_name f.Oracle.kind)
   | Oracle.Pass _ -> Alcotest.fail "expected frontend-reject, got pass")

(* a certificate re-solved cold is a finding of its own: the root
   relaxation's prices did not lift through presolve *)
let test_oracle_certificate_cold () =
  let source = "int main() { int i; int s; s = 0;\n\
                for (i = 0; i < 4; i = i + 1) { s = s + i; }\n\
                return s; }" in
  let ast, _ = Ipet_lang.Frontend.parse_and_check source in
  let prog = (Ipet_lang.Frontend.compile_string_exn source).Ipet_lang.Compile.prog in
  let spec =
    Ipet.Analysis.spec ~loop_bounds:(Ipet.Autobound.infer ast) ~root:"main" prog
  in
  let r = Ipet.Analysis.analyze ~certify:true spec in
  let kind c =
    Option.map (fun f -> Oracle.kind_name f.Oracle.kind)
      (Oracle.certificate_finding "wcet" c)
  in
  let show = function None -> "none" | Some k -> k in
  let wcet = r.Ipet.Analysis.wcet_cert in
  let from source =
    Option.map (fun c -> { c with Ipet.Analysis.emit_source = source }) wcet
  in
  check_string "lifted" "none" (show (kind wcet));
  check_string "fell back to cold" "certificate-cold"
    (show (kind (from Ipet_cert.Certify.Cold)));
  check_string "no certificate" "certificate-reject" (show (kind None))

(* a block whose own cycles leave its count times its cost bounds is a
   finding of the cost layer that names the block *)
let test_oracle_block_cost () =
  let source = "int main() { int i; int s; s = 0;\n\
                for (i = 0; i < 4; i = i + 1) { s = s + i; }\n\
                return s; }" in
  let ast, _ = Ipet_lang.Frontend.parse_and_check source in
  let compiled = Ipet_lang.Frontend.compile_string_exn source in
  let prog = compiled.Ipet_lang.Compile.prog in
  let spec =
    Ipet.Analysis.spec ~loop_bounds:(Ipet.Autobound.infer ast) ~root:"main" prog
  in
  let m =
    Ipet_sim.Interp.create prog ~init:compiled.Ipet_lang.Compile.init_data
  in
  ignore (Ipet_sim.Interp.call m "main" []);
  let costs = Ipet.Analysis.block_costs spec in
  let finding f =
    let costs ~func = Array.map f (costs ~func) in
    match Oracle.block_cost_finding ~costs m with
    | None -> "none"
    | Some r ->
      Oracle.kind_name r.Oracle.kind ^ ": "
      ^ String.sub r.Oracle.detail 0 (String.index r.Oracle.detail ':')
  in
  check_string "the cost model covers every block" "none" (finding Fun.id);
  check_string "a worst case below the run" "block-cost-violation: main B0"
    (finding (fun b -> { b with Cost.worst = b.Cost.best - 1 }));
  check_string "a best case above the run" "block-cost-violation: main B0"
    (finding (fun b -> { b with Cost.best = b.Cost.worst + 1 }))

(* measured counts scoring beyond a bound under its objective are a finding
   of the solver chain; counts that break a constraint are not *)
let test_oracle_objective () =
  let source = "int main() { int i; int s; s = 0;\n\
                for (i = 0; i < 4; i = i + 1) { s = s + i; }\n\
                return s; }" in
  let ast, _ = Ipet_lang.Frontend.parse_and_check source in
  let compiled = Ipet_lang.Frontend.compile_string_exn source in
  let prog = compiled.Ipet_lang.Compile.prog in
  let spec =
    Ipet.Analysis.spec ~loop_bounds:(Ipet.Autobound.infer ast) ~root:"main" prog
  in
  let m =
    Ipet_sim.Interp.create prog ~init:compiled.Ipet_lang.Compile.init_data
  in
  ignore (Ipet_sim.Interp.call m "main" []);
  let instances, system = Ipet.Analysis.program_system spec in
  let bcet, wcet = Ipet.Analysis.estimated_bound spec in
  let finding ?(counts = Oracle.measured_counts m instances) ~bcet ~wcet () =
    match
      Oracle.objective_finding ~bcet ~wcet
        ~wcet_problems:(Ipet.Analysis.system_problems system Lp.Maximize)
        ~bcet_problems:(Ipet.Analysis.system_problems system Lp.Minimize)
        counts
    with
    | None -> "none"
    | Some f ->
      Oracle.kind_name f.Oracle.kind ^ ": "
      ^ (if List.mem "wcet" (String.split_on_char ' ' f.Oracle.detail)
         then "wcet" else "bcet")
  in
  check_string "the solved bounds hold the run" "none" (finding ~bcet ~wcet ());
  check_string "a WCET below the run's worst-case score"
    "objective-violation: wcet" (finding ~bcet ~wcet:(wcet - 1) ());
  check_string "a BCET above the run's best-case score"
    "objective-violation: bcet" (finding ~bcet:(bcet + 1) ~wcet ());
  check_string "counts that break a constraint are left to the constraint check"
    "none" (finding ~counts:(fun _ -> Rat.zero) ~bcet ~wcet:(-1) ())

(* --- a short live run ----------------------------------------------------- *)

let fuzz_run ~mach ~seed ~iters =
  let outcome = Driver.run ~mach ~shrink:false ~seed ~iters () in
  (match outcome.Driver.report with
   | None -> ()
   | Some r ->
     Alcotest.fail
       (Printf.sprintf "seed %d on %s: %s: %s" r.Driver.case_seed
          (Machine.id mach)
          (Oracle.kind_name r.Driver.failure.Oracle.kind)
          r.Driver.failure.Oracle.detail));
  check_int "all iterations ran" iters outcome.Driver.iters_run;
  check_int "all passed" iters outcome.Driver.passed

let test_fuzz_run () = fuzz_run ~mach:Machine.e32 ~seed:90001 ~iters:25

(* the same seeds generate the same programs; only the oracle's machine
   changes, so this exercises the full m7 analysis+sim+cert pipeline *)
let test_fuzz_run_m7 () = fuzz_run ~mach:Machine.m7 ~seed:90001 ~iters:25

(* --- shrinking ------------------------------------------------------------ *)

(* shrink against a synthetic failure class: "main assigns to global g0".
   The shrinker must reach a minimal program while preserving the property,
   strictly decreasing its measure on every accepted edit. *)
let test_shrinker_minimizes () =
  let rec assigns_g0_stmt (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Assign (Ast.Lvar "g0", _) -> true
    | Ast.If (_, t, e) -> List.exists assigns_g0_stmt t || List.exists assigns_g0_stmt e
    | Ast.While (_, b) | Ast.Do_while (b, _) | Ast.For (_, _, _, b)
    | Ast.Block b -> List.exists assigns_g0_stmt b
    | _ -> false
  in
  let assigns_g0 (p : Ast.program) =
    List.exists (fun (f : Ast.func) -> List.exists assigns_g0_stmt f.Ast.body)
      p.Ast.funcs
  in
  (* find a generated program with the property *)
  let rec find seed =
    if seed > 400 then Alcotest.fail "no generated program assigns g0"
    else
      let case = Gen.case seed in
      if assigns_g0 case.Gen.prog then case.Gen.prog else find (seed + 1)
  in
  let original = find 1 in
  let small = Shrink.minimize ~check:assigns_g0 original in
  check_bool "shrunk program keeps the property" true (assigns_g0 small);
  check_bool "shrunk program is no larger" true
    (Shrink.prog_size small <= Shrink.prog_size original);
  (* the minimal such program is tiny: main plus the one assignment *)
  check_bool "shrunk to a handful of nodes" true (Shrink.prog_size small <= 8)

(* --- ALU differential: folder vs simulator -------------------------------- *)

let all_ops =
  [ I.Add; I.Sub; I.Mul; I.Div; I.Rem; I.And; I.Or; I.Xor; I.Shl; I.Shr ]

let agree op a b =
  let folded = Ipet_lang.Optimize.fold_alu op a b in
  let interpreted =
    match Ipet_sim.Interp.alu op a b with
    | v -> Some v
    | exception Ipet_sim.Interp.Runtime_error _ -> None
  in
  if folded <> interpreted then
    Alcotest.failf "fold_alu and Interp.alu disagree on %s %d %d: %s vs %s"
      (match op with
       | I.Add -> "add" | I.Sub -> "sub" | I.Mul -> "mul" | I.Div -> "div"
       | I.Rem -> "rem" | I.And -> "and" | I.Or -> "or" | I.Xor -> "xor"
       | I.Shl -> "shl" | I.Shr -> "shr")
      a b
      (match folded with None -> "fold:none" | Some v -> string_of_int v)
      (match interpreted with None -> "interp:raise" | Some v -> string_of_int v)

let interesting_operands =
  [ 0; 1; -1; 2; -2; 31; 32; 33; 62; 63; 64; 65; 127; 128;
    V.max_int32; V.max_int32 - 1; V.min_int32; V.min_int32 + 1 ]

let test_alu_differential_exhaustive_shifts () =
  (* every shift amount 0..63 (and past 63 via the interesting operands),
     for every interesting left operand *)
  List.iter
    (fun a ->
      for s = 0 to 63 do
        agree I.Shl a s;
        agree I.Shr a s
      done)
    interesting_operands;
  (* all interesting pairs for every operator, min_int32 / -1 included *)
  List.iter
    (fun op ->
      List.iter
        (fun a -> List.iter (fun b -> agree op a b) interesting_operands)
        interesting_operands)
    all_ops

let prop_alu_differential =
  QCheck.Test.make ~name:"fold_alu agrees with Interp.alu on random operands"
    ~count:2000
    QCheck.(triple (int_bound 9) int int)
    (fun (opi, a, b) ->
      let op = List.nth all_ops opi in
      let a = V.wrap32 a and b = V.wrap32 b in
      agree op a b;
      true)

(* results of both ALUs always stay in 32-bit range *)
let prop_alu_in_range =
  QCheck.Test.make ~name:"ALU results are 32-bit" ~count:2000
    QCheck.(triple (int_bound 9) int int)
    (fun (opi, a, b) ->
      let op = List.nth all_ops opi in
      let a = V.wrap32 a and b = V.wrap32 b in
      match Ipet_sim.Interp.alu op a b with
      | v -> v >= V.min_int32 && v <= V.max_int32
      | exception Ipet_sim.Interp.Runtime_error _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_alu_differential; prop_alu_in_range ]

let suite =
  [ ("corpus replay", `Quick, test_corpus_replay);
    ("corpus replay on m7", `Quick, test_corpus_replay_m7);
    ("splitmix64 reference stream", `Quick, test_rng_reference_stream);
    ("rng ranges", `Quick, test_rng_ranges);
    ("deterministic generation", `Quick, test_generation_deterministic);
    ("render/reparse fixpoint", `Quick, test_render_reparse_fixpoint);
    ("oracle classification", `Quick, test_oracle_classifies);
    ("25-case fuzz run", `Slow, test_fuzz_run);
    ("25-case fuzz run on m7", `Slow, test_fuzz_run_m7);
    ("shrinker minimizes", `Quick, test_shrinker_minimizes);
    ("ALU differential, exhaustive shifts", `Quick,
     test_alu_differential_exhaustive_shifts);
    ("oracle: counts scoring beyond a bound are a finding", `Quick,
     test_oracle_objective);
    ("oracle: a block outside its cost bounds is a finding", `Quick,
     test_oracle_block_cost);
    ("oracle: a cold certificate solve is a finding", `Quick,
     test_oracle_certificate_cold) ]
  @ props
