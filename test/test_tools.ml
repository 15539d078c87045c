(* Tests for the user-facing tooling: constraint text parser, annotation
   files, reports, and the first-miss refinement. *)

module CP = Ipet.Constraint_parser
module F = Ipet.Functional
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Interp = Ipet_sim.Interp
module Analysis = Ipet.Analysis
module V = Ipet_isa.Value

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- constraint parser ----------------------------------------------------- *)

let roundtrip text = Format.asprintf "%a" F.pp (CP.parse_constraint ~func:"f" text)

let test_parse_simple () =
  check_bool "equality" true (roundtrip "x3 = x8" = "x_f_3 = x_f_8");
  check_bool "le with coeff" true (roundtrip "x2 <= 10 x1" = "x_f_2 <= 10 x_f_1");
  check_bool "line refs" true (roundtrip "x@12 >= 1" = "x_f@L12 >= 1")

let test_parse_sums () =
  check_bool "sum" true (roundtrip "x1 + x2 - 3 x4 = 7" = "x_f_1 + x_f_2 - 3 x_f_4 = 7");
  check_bool "leading minus" true (roundtrip "-x1 + 5 = 0" = "-x_f_1 + 5 = 0")

let test_parse_boolean () =
  let c = CP.parse_constraint ~func:"f" "(x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0)" in
  (match c with
   | F.Or [ F.And [ F.Rel _; F.Rel _ ]; F.And [ F.Rel _; F.Rel _ ] ] -> ()
   | F.Or _ | F.And _ | F.Rel _ -> Alcotest.fail "wrong shape");
  (* precedence: & binds tighter than | *)
  let c2 = CP.parse_constraint ~func:"f" "x1 = 0 & x2 = 0 | x3 = 0" in
  match c2 with
  | F.Or [ F.And _; F.Rel _ ] -> ()
  | F.Or _ | F.And _ | F.Rel _ -> Alcotest.fail "precedence wrong"

let test_parse_errors () =
  let bad text =
    try ignore (CP.parse_constraint ~func:"f" text); false
    with CP.Parse_error _ -> true
  in
  check_bool "empty" true (bad "");
  check_bool "no rel" true (bad "x1 + x2");
  check_bool "bad char" true (bad "x1 = $");
  check_bool "unclosed" true (bad "(x1 = 0");
  check_bool "bare x" true (bad "x = 1");
  check_bool "trailing" true (bad "x1 = 0 )")

(* a literal above 10^18, or one side whose literals add up past it,
   would wrap the parser's native ints; each is an error naming it *)
let test_parse_oversized_literals () =
  let error text =
    match CP.parse_constraint ~func:"f" text with
    | _ -> Alcotest.failf "%S parsed" text
    | exception CP.Parse_error msg -> msg
  in
  List.iter
    (fun literal ->
      List.iter
        (fun text ->
          check_bool (text ^ ": names the literal") true
            (Test_lp.contains ~needle:literal (error text)))
        [ "x5 <= " ^ literal; "x" ^ literal ^ " = 1"; "x@" ^ literal ^ " = 1";
          literal ^ " x5 >= 1" ])
    [ "9223372036854775808"; "4611686018427387904"; "99999999999999999999";
      "1000000000000000001" ];
  (* each literal is in range, but their sum is past [max_int] *)
  let sum =
    "x5 <= " ^ String.concat " + " (List.init 6 (fun _ -> "900000000000000000"))
  in
  check_bool "an overflowing sum names its constraint" true
    (Test_lp.contains ~needle:("one side of " ^ Printf.sprintf "%S" sum)
       (error sum));
  check_bool "10^18 itself parses" true
    (roundtrip "x5 + 999999999999999999 <= 1000000000000000000"
     = "x_f_5 + 999999999999999999 <= 1000000000000000000")

let test_annotation_file () =
  let text = {|
# a comment
root check_data
loop check_data 8 1 10
constr check_data (x@10 = 0 & x@15 = 1) | (x@10 = 1 & x@15 = 0)
constr check_data x@10 = x@19
|} in
  let parsed = CP.parse_annotation_text text in
  check_bool "root" true (parsed.CP.root = Some "check_data");
  check_int "loops" 1 (List.length parsed.CP.loop_bounds);
  check_int "constraints" 2 (List.length parsed.CP.functional)

let test_annotation_file_errors () =
  let bad text =
    try ignore (CP.parse_annotation_text text); false
    with CP.Parse_error _ -> true
  in
  check_bool "bad loop arity" true (bad "loop f 3 4");
  check_bool "bad directive" true (bad "frob f");
  check_bool "bad constraint" true (bad "constr f x1 &");
  check_bool "error names line" true
    (try ignore (CP.parse_annotation_text "\n\nloop f 1");
       false
     with CP.Parse_error msg ->
       String.length msg > 6 && String.sub msg 0 6 = "line 3")

(* --- reports ---------------------------------------------------------------- *)

let test_annotated_source () =
  let src = "int f(int p) {\n  if (p)\n    return 1;\n  return 0;\n}\n" in
  let compiled = Frontend.compile_string_exn src in
  let listing = Ipet.Report.annotated_source ~source:src compiled.Compile.prog ~func:"f" in
  check_bool "labels entry" true (Test_lp.contains ~needle:"x0" listing);
  check_bool "has line numbers" true (Test_lp.contains ~needle:"|   3|" listing)

(* --- first-miss refinement --------------------------------------------------- *)

let refinement_src = {|int buf[128];

int scan() {
  int i; int s;
  s = 0;
  for (i = 0; i < 128; i = i + 1)
    s = s + buf[i];
  return s;
}
|}

let refinement_specs () =
  let compiled = Frontend.compile_string_exn refinement_src in
  let prog = compiled.Compile.prog in
  let line = Ipet_suite.Bspec.line_containing ~source:refinement_src "for (i = 0" in
  let loop_bounds = [ Ipet.Annotation.loop ~func:"scan" ~line ~lo:128 ~hi:128 ] in
  let mk refined =
    Analysis.spec prog ~root:"scan" ~loop_bounds ~first_miss_refinement:refined
  in
  (compiled, mk false, mk true)

let test_refinement_tightens_and_sound () =
  let compiled, plain_spec, refined_spec = refinement_specs () in
  let plain = Analysis.analyze plain_spec in
  let refined = Analysis.analyze refined_spec in
  let wp = plain.Analysis.wcet.Analysis.cycles in
  let wr = refined.Analysis.wcet.Analysis.cycles in
  check_bool "refined < baseline" true (wr < wp);
  check_bool "substantial gain (>2x)" true (2 * wr < wp);
  (* soundness: cold-cache simulation stays below the refined WCET *)
  let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
  for i = 0 to 127 do
    Interp.write_global m "buf" i (V.Vint i)
  done;
  Interp.flush_cache m;
  ignore (Interp.call m "scan" []);
  check_bool "sound" true (Interp.cycles m <= wr);
  (* BCET is unchanged by the refinement (best case was already all-hit) *)
  check_int "bcet unchanged" plain.Analysis.bcet.Analysis.cycles
    refined.Analysis.bcet.Analysis.cycles

let test_refinement_skips_loops_with_calls () =
  (* a loop containing a call must not be refined (the callee may evict) *)
  let src = {|int buf[16];
int touch(int i) { return buf[i & 15]; }
int scan() {
  int i; int s;
  s = 0;
  for (i = 0; i < 16; i = i + 1)
    s = s + touch(i);
  return s;
}
|} in
  let compiled = Frontend.compile_string_exn src in
  let prog = compiled.Compile.prog in
  let line = Ipet_suite.Bspec.line_containing ~source:src "for (i = 0" in
  let loop_bounds = [ Ipet.Annotation.loop ~func:"scan" ~line ~lo:16 ~hi:16 ] in
  let solve refined =
    (Analysis.analyze
       (Analysis.spec prog ~root:"scan" ~loop_bounds ~first_miss_refinement:refined))
      .Analysis.wcet.Analysis.cycles
  in
  (* the only loop has a call, so the refinement must change nothing *)
  check_int "no effect on call-bearing loops" (solve false) (solve true)

(* Hostile annotation files: each suite program's annotation text
   truncated, with one byte replaced, or with an integer literal widened
   to 20 digits ([Test_lang.mutate]). The parser returns a result or
   raises [Parse_error], nothing else. *)
let prop_hostile_annotations =
  QCheck.Test.make
    ~name:"hostile annotation text is a result or Parse_error, never raises"
    ~count:500
    QCheck.(
      quad (int_bound 1000) (int_bound 2) (int_bound 100_000) (int_bound 255))
    (fun (which, kind, pos, byte) ->
      let all = Ipet_suite.Suite.all in
      let b = List.nth all (which mod List.length all) in
      let text = Ipet_suite.Bspec.annotation_text b in
      match CP.parse_annotation_text (Test_lang.mutate text kind pos byte) with
      | _ | (exception CP.Parse_error _) -> true)

let suite =
  [ ("parse simple constraints", `Quick, test_parse_simple);
    ("parse sums", `Quick, test_parse_sums);
    ("parse boolean structure", `Quick, test_parse_boolean);
    ("parse errors", `Quick, test_parse_errors);
    ("oversized literals are parse errors", `Quick,
     test_parse_oversized_literals);
    ("annotation file", `Quick, test_annotation_file);
    ("annotation file errors", `Quick, test_annotation_file_errors);
    ("annotated source listing", `Quick, test_annotated_source);
    ("refinement tightens and stays sound", `Quick, test_refinement_tightens_and_sound);
    ("refinement skips call-bearing loops", `Quick, test_refinement_skips_loops_with_calls) ]

(* --- WCET sensitivity --------------------------------------------------- *)

let test_sensitivity () =
  let src = {|int a_arr[16];
int f() {
  int i; int j; int s;
  s = 0;
  for (i = 0; i < 16; i = i + 1)
    s = s + a_arr[i] * a_arr[i];
  for (j = 0; j < 4; j = j + 1)
    s = s / 2;
  return s;
}
|} in
  let compiled = Frontend.compile_string_exn src in
  let line marker = Ipet_suite.Bspec.line_containing ~source:src marker in
  let big = Ipet.Annotation.loop ~func:"f" ~line:(line "for (i = 0") ~lo:16 ~hi:16 in
  let small = Ipet.Annotation.loop ~func:"f" ~line:(line "for (j = 0") ~lo:0 ~hi:4 in
  let spec =
    Analysis.spec compiled.Compile.prog ~root:"f" ~loop_bounds:[ big; small ]
  in
  let rows = Analysis.wcet_sensitivity spec in
  check_int "one row per annotation" 2 (List.length rows);
  let drop ann_line =
    let row =
      List.find
        (fun (r : Analysis.sensitivity_row) ->
          r.Analysis.annotation.Ipet.Annotation.header = `Line ann_line)
        rows
    in
    row.Analysis.base_wcet - row.Analysis.tightened_wcet
  in
  (* tightening lo = hi on the first loop is not allowed (hi <= lo): drop 0 *)
  check_int "exact bound cannot tighten" 0 (drop (line "for (i = 0"));
  (* the second loop's bound is slack upward: one fewer iteration saves
     a positive number of cycles *)
  check_bool "slack bound has positive price" true (drop (line "for (j = 0") > 0)

let suite =
  suite
  @ [ ("wcet sensitivity", `Quick, test_sensitivity);
      QCheck_alcotest.to_alcotest prop_hostile_annotations ]
