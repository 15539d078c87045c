(* Edge cases and error paths across the libraries: resolution failures,
   runtime faults, malformed inputs — the behaviour a user hits when they
   hold the tool wrong must be a clear error, never a wrong answer. *)

module B = Ipet_num.Bigint
module Q = Ipet_num.Rat
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Interp = Ipet_sim.Interp
module P = Ipet_isa.Prog
module I = Ipet_isa.Instr
module V = Ipet_isa.Value
module F = Ipet.Functional
module Analysis = Ipet.Analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- numeric parsing errors -------------------------------------------- *)

let test_numeric_parse_errors () =
  let bad_big s = try ignore (B.of_string s); false with Failure _ -> true in
  check_bool "empty" true (bad_big "");
  check_bool "letters" true (bad_big "12a3");
  check_bool "lone sign" true (bad_big "-");
  let bad_rat s = try ignore (Q.of_string s); false with Failure _ | Division_by_zero -> true in
  check_bool "trailing dot" true (bad_rat "3.");
  check_bool "zero denominator" true (bad_rat "1/0")

(* --- functionality constraint resolution -------------------------------- *)

let check_data_prog () =
  let bench = Ipet_suite.Suite.find "check_data" in
  ((Ipet_suite.Bspec.compile bench).Compile.prog, bench)

let expect_resolution_error functional =
  let prog, bench = check_data_prog () in
  let spec =
    Analysis.spec prog ~root:"check_data"
      ~loop_bounds:bench.Ipet_suite.Bspec.loop_bounds ~functional
  in
  check_bool "resolution error" true
    (try ignore (Analysis.analyze spec); false
     with F.Resolution_error _ -> true)

let test_unknown_function_in_constraint () =
  expect_resolution_error F.[ x ~func:"nonexistent" 0 =. const 1 ]

let test_unknown_block_in_constraint () =
  expect_resolution_error F.[ x ~func:"check_data" 999 =. const 1 ]

let test_unknown_line_in_constraint () =
  expect_resolution_error F.[ x_at ~func:"check_data" ~line:9999 =. const 1 ]

let test_bad_call_path_in_constraint () =
  expect_resolution_error
    F.[ x_in ~path:[ Ipet.Callsite.make 0 ] ~func:"check_data" 0 =. const 1 ]

let test_infeasible_sets_reported () =
  (* a functionality constraint contradicting the structure (entry is 1) in
     a way the syntactic pruner cannot see *)
  let prog, bench = check_data_prog () in
  let spec =
    Analysis.spec prog ~root:"check_data"
      ~loop_bounds:bench.Ipet_suite.Bspec.loop_bounds
      ~functional:F.[ add (x ~func:"check_data" 0) (x ~func:"check_data" 1) =. const 0 ]
  in
  check_bool "all sets infeasible is an analysis error" true
    (try ignore (Analysis.analyze spec); false with Analysis.Analysis_error _ -> true)

(* --- interpreter faults -------------------------------------------------- *)

let test_stack_overflow () =
  let src = "int f() { int big[100000]; big[0] = 1; return big[0]; }" in
  let compiled = Frontend.compile_string_exn src in
  List.iter
    (fun (what, stack_words) ->
      let m =
        Interp.create ?stack_words compiled.Compile.prog
          ~init:compiled.Compile.init_data
      in
      check_bool ("stack overflow detected, " ^ what) true
        (try ignore (Interp.call m "f" []); false
         with Interp.Runtime_error _ -> true))
    [ ("1024-word stack", Some 1024); ("default stack", None) ]

(* the default stack holds the deepest chain of frames, main -> f -> g,
   and nothing more *)
let test_default_stack_fits_call_chain () =
  let src =
    "int g(int i) { int a[8]; a[i] = i; return a[i]; }\n\
     int f(int i) { int b[16]; b[i] = g(i); return b[i] + g(i + 1); }\n\
     int main() { int c[4]; c[1] = f(2); return c[1] + g(3); }"
  in
  let compiled = Frontend.compile_string_exn src in
  let prog = compiled.Compile.prog in
  let chain =
    List.fold_left
      (fun acc name -> acc + (P.find_func prog name).P.frame_words)
      0 [ "main"; "f"; "g" ]
  in
  let run stack_words =
    let m = Interp.create ?stack_words prog ~init:compiled.Compile.init_data in
    Interp.call m "main" []
  in
  check_bool "runs under the default stack" true
    (run None = Some (V.Vint 8));
  check_bool "one word short of the chain overflows" true
    (try ignore (run (Some (chain - 1))); false
     with Interp.Runtime_error _ -> true);
  (* a recursive program has no deepest chain and gets the 64 Ki-word cap *)
  let compiled =
    Frontend.compile_string_exn
      "int r(int n) { int a[4]; if (n == 0) { return 0; }\n\
       a[1] = n; return a[1] + r(n - 1); }\n\
       int main() { return r(200); }"
  in
  let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
  check_bool "recursion runs under the capped default" true
    (Interp.call m "main" [] = Some (V.Vint 20100))

let test_bad_arity_call () =
  let compiled = Frontend.compile_string_exn "int f(int a) { return a; }" in
  let m = Interp.create compiled.Compile.prog ~init:[] in
  check_bool "arity mismatch" true
    (try ignore (Interp.call m "f" []); false with Interp.Runtime_error _ -> true)

let test_unknown_root_call () =
  let compiled = Frontend.compile_string_exn "int f() { return 1; }" in
  let m = Interp.create compiled.Compile.prog ~init:[] in
  check_bool "unknown function" true
    (try ignore (Interp.call m "zzz" []); false with Interp.Runtime_error _ -> true)

let test_global_access_errors () =
  let compiled = Frontend.compile_string_exn "int g[4];\nint f() { return g[0]; }" in
  let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
  check_bool "unknown global" true
    (try Interp.write_global m "nope" 0 (V.Vint 1); false
     with Interp.Runtime_error _ -> true);
  check_bool "index out of bounds" true
    (try Interp.write_global m "g" 4 (V.Vint 1); false
     with Interp.Runtime_error _ -> true)

let test_out_of_bounds_memory () =
  (* negative index drives the effective address below the segment *)
  let src = "int g[4];\nint f(int i) { return g[i]; }" in
  let compiled = Frontend.compile_string_exn src in
  let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
  check_bool "negative address traps" true
    (try ignore (Interp.call m "f" [ V.Vint (-10) ]); false
     with Interp.Runtime_error _ -> true)

(* --- analysis error paths ------------------------------------------------- *)

let test_unknown_root_analysis () =
  let compiled = Frontend.compile_string_exn "int f() { return 1; }" in
  check_bool "unknown root" true
    (try ignore (Analysis.analyze (Analysis.spec compiled.Compile.prog ~root:"zzz"));
       false
     with Invalid_argument _ -> true)

let test_recursive_program_rejected () =
  let compiled =
    Frontend.compile_string_exn
      "int f(int n) { if (n == 0) return 1; return n * f(n - 1); }"
  in
  match Analysis.analyze (Analysis.spec compiled.Compile.prog ~root:"f") with
  | _ -> Alcotest.fail "a recursive program was analyzed"
  | exception Analysis.Analysis_error msg ->
    Alcotest.(check string) "an analysis error naming the cycle"
      "recursive program: f -> f" msg

let test_bad_annotation_rejected () =
  let compiled = Frontend.compile_string_exn "int f() { return 1; }" in
  check_bool "lo > hi" true
    (try
       ignore
         (Analysis.analyze
            (Analysis.spec compiled.Compile.prog ~root:"f"
               ~loop_bounds:[ Ipet.Annotation.loop ~func:"f" ~line:1 ~lo:5 ~hi:2 ]));
       false
     with Ipet.Annotation.Bad_annotation _ -> true);
  check_bool "annotation on loop-free analyzed function" true
    (try
       ignore
         (Analysis.analyze
            (Analysis.spec compiled.Compile.prog ~root:"f"
               ~loop_bounds:[ Ipet.Annotation.loop ~func:"f" ~line:1 ~lo:1 ~hi:2 ]));
       false
     with Ipet.Annotation.Bad_annotation _ -> true)

(* --- marker helper -------------------------------------------------------- *)

let test_marker_errors () =
  let source = "aaa\nbbb\naaa\n" in
  check_bool "missing marker" true
    (try ignore (Ipet_suite.Bspec.line_containing ~source "zzz"); false
     with Failure _ -> true);
  check_bool "ambiguous marker" true
    (try ignore (Ipet_suite.Bspec.line_containing ~source "aaa"); false
     with Failure _ -> true);
  check_int "unique marker" 2 (Ipet_suite.Bspec.line_containing ~source "bbb")

(* --- structural queries ----------------------------------------------------- *)

let test_instance_at_misses () =
  let prog, _ = check_data_prog () in
  let insts = Ipet.Structural.instances prog ~root:"check_data" in
  check_bool "bad path" true
    (Ipet.Structural.instance_at insts ~root:"check_data"
       ~path:[ Ipet.Callsite.make 42 ]
     = None)

let suite =
  [ ("numeric parse errors", `Quick, test_numeric_parse_errors);
    ("unknown function in constraint", `Quick, test_unknown_function_in_constraint);
    ("unknown block in constraint", `Quick, test_unknown_block_in_constraint);
    ("unknown line in constraint", `Quick, test_unknown_line_in_constraint);
    ("bad call path in constraint", `Quick, test_bad_call_path_in_constraint);
    ("infeasible sets reported", `Quick, test_infeasible_sets_reported);
    ("stack overflow", `Quick, test_stack_overflow);
    ("default stack fits the call chain", `Quick,
     test_default_stack_fits_call_chain);
    ("bad arity call", `Quick, test_bad_arity_call);
    ("unknown root call", `Quick, test_unknown_root_call);
    ("global access errors", `Quick, test_global_access_errors);
    ("out-of-bounds memory", `Quick, test_out_of_bounds_memory);
    ("unknown analysis root", `Quick, test_unknown_root_analysis);
    ("recursion rejected", `Quick, test_recursive_program_rejected);
    ("bad annotations rejected", `Quick, test_bad_annotation_rejected);
    ("marker errors", `Quick, test_marker_errors);
    ("instance_at misses", `Quick, test_instance_at_misses) ]
