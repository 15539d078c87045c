(* Assembly text round-trip tests: print with Prog.pp, parse with
   Asm_parser, compare — for hand-written listings, compiled programs, and
   an execution-equivalence check. *)

module P = Ipet_isa.Prog
module I = Ipet_isa.Instr
module Asm = Ipet_isa.Asm_parser
module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Interp = Ipet_sim.Interp
module V = Ipet_isa.Value

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let render prog = Format.asprintf "%a" P.pp prog

let test_hand_written () =
  let text = {|
.global counter @ 0 (1 words)
f(1 params, 2 frame words):
B0:   ; line 3
  mov r1, #5
  add r2, r0, r1
  ld r3, [0]
  st r2, [fp+1]
  br r2 ? B1 : B2
B1:
  cmp.lt r4, r2, #100
  jmp B2
B2:
  ret r2
|} in
  let prog = Asm.parse text in
  check_int "one function" 1 (Array.length prog.P.funcs);
  let f = prog.P.funcs.(0) in
  check_int "three blocks" 3 (Array.length f.P.blocks);
  check_int "params" 1 f.P.nparams;
  check_int "frame" 2 f.P.frame_words;
  check_int "src line kept" 3 f.P.blocks.(0).P.src_line;
  check_int "globals" 1 (List.length prog.P.globals)

let test_roundtrip_compiled () =
  let sources =
    [ "int f(int a) { int s; int i; s = 0; \
       for (i = 0; i < 10; i = i + 1) s = s + a; return s; }";
      "float g(float x) { return x * 2.0 + 0.5; }\n\
       int f(int a) { return (int) g((float) a); }";
      "int buf[4];\nvoid f(int a) { buf[a & 3] = a; }" ]
  in
  List.iter
    (fun src ->
      let compiled = Frontend.compile_string_exn src in
      let text = render compiled.Compile.prog in
      let reparsed = Asm.parse text in
      (* compare by re-rendering: Prog has arrays inside, structural compare
         via the canonical text is the honest check *)
      Alcotest.(check string) "roundtrip" text (render reparsed))
    sources

let test_roundtrip_executes_identically () =
  let src =
    "int f(int a) { int s; int i; s = 1; \
     for (i = 0; i < 8; i = i + 1) { if (a > i) s = s * 2; else s = s + 3; } \
     return s; }"
  in
  let compiled = Frontend.compile_string_exn src in
  let reparsed = Asm.parse (render compiled.Compile.prog) in
  List.iter
    (fun arg ->
      let run prog =
        let m = Interp.create prog ~init:compiled.Compile.init_data in
        (Interp.call m "f" [ V.Vint arg ], Interp.cycles m)
      in
      let r1, c1 = run compiled.Compile.prog in
      let r2, c2 = run reparsed in
      check_bool "same result" true
        (match (r1, r2) with Some a, Some b -> V.equal a b | _ -> false);
      check_int "same cycles" c1 c2)
    [ 0; 4; 100 ]

let test_float_immediates_roundtrip () =
  List.iter
    (fun f ->
      let prog =
        { P.funcs =
            [| { P.name = "f"; nparams = 0; frame_words = 0;
                 blocks =
                   [| { P.id = 0; instrs = [| I.Mov (0, I.Fimm f) |];
                        term = I.Return (Some (I.Reg 0)); src_line = 0 } |] } |];
          P.globals = [];
          P.globals_words = 0 }
      in
      let reparsed = Asm.parse (render prog) in
      match reparsed.P.funcs.(0).P.blocks.(0).P.instrs.(0) with
      | I.Mov (0, I.Fimm f') ->
        check_bool (Printf.sprintf "float %h" f) true (Float.equal f f')
      | _ -> Alcotest.fail "wrong instruction")
    [ 0.0; 1.0; -1.0; 0.5; 3.25; 1e10; -7.125e-3; 0.499975 ]

let test_parse_errors () =
  let bad text =
    try ignore (Asm.parse text); false with Asm.Error _ -> true
  in
  check_bool "unknown mnemonic" true
    (bad "f(0 params, 0 frame words):\nB0:\n  frobnicate r1, r2, r3\n  ret\n");
  check_bool "missing terminator" true
    (bad "f(0 params, 0 frame words):\nB0:\n  mov r1, #2\n");
  check_bool "instr after terminator" true
    (bad "f(0 params, 0 frame words):\nB0:\n  ret\n  mov r1, #2\n");
  check_bool "bad branch target" true
    (bad "f(0 params, 0 frame words):\nB0:\n  jmp B7\n");
  check_bool "orphan block" true (bad "B0:\n  ret\n");
  (* a numeric field beyond the native range, or malformed, and a second
     definition of a function are errors on their line *)
  let error_line text =
    match Asm.parse text with
    | _ -> None
    | exception Asm.Error (_, line) -> Some line
  in
  let big = "99999999999999999999" and f = "f(0 params, 0 frame words):\n" in
  List.iter
    (fun (what, text, line) ->
      Alcotest.(check (option int)) what (Some line) (error_line text))
    [ ("operand", f ^ "B0:\n  ld r1, [" ^ big ^ "+r0]\n  ret\n", 3);
      ("immediate", f ^ "B0:\n  ret #" ^ big ^ "\n", 3);
      ("float immediate", f ^ "B0:\n  ret #1.2.3\n", 3);
      ("block id", f ^ "B" ^ big ^ ":\n  ret\n", 2);
      ("segment size", ".global d @ 0 (" ^ big ^ " words)\n", 1);
      ("function defined twice", f ^ "B0:\n  ret\n" ^ f ^ "B0:\n  ret\n", 4) ]

let test_analyze_from_assembly () =
  (* the cinderella use case: no source, just a listing with line comments *)
  let src =
    "int f(int n) { int i; int s; s = 0; \
     for (i = 0; i < 6; i = i + 1) s = s + n; return s; }"
  in
  let compiled = Frontend.compile_string_exn src in
  let reparsed = Asm.parse (render compiled.Compile.prog) in
  (* annotate by block id, since assembly has no source lines to refer to *)
  let f = reparsed.P.funcs.(0) in
  let cfg = Ipet_cfg.Cfg.of_func f in
  let dom = Ipet_cfg.Dominators.compute cfg in
  let header = (List.hd (Ipet_cfg.Loops.detect cfg dom)).Ipet_cfg.Loops.header in
  let result =
    Ipet.Analysis.analyze
      (Ipet.Analysis.spec reparsed ~root:"f"
         ~loop_bounds:
           [ Ipet.Annotation.loop_at_block ~func:"f" ~block:header ~lo:6 ~hi:6 ])
  in
  let m = Interp.create reparsed ~init:compiled.Compile.init_data in
  Interp.flush_cache m;
  ignore (Interp.call m "f" [ V.Vint 3 ]);
  check_bool "bound holds" true
    (result.Ipet.Analysis.bcet.Ipet.Analysis.cycles <= Interp.cycles m
     && Interp.cycles m <= result.Ipet.Analysis.wcet.Ipet.Analysis.cycles)

(* property: compiled random programs round-trip through the text format *)
let prop_roundtrip_random =
  QCheck.Test.make ~name:"assembly roundtrip on random programs" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let src = Test_cfg.random_program_src seed in
      let compiled = Frontend.compile_string_exn src in
      let text = render compiled.Compile.prog in
      text = render (Asm.parse text))

(* Hostile listings: each suite program's listing truncated, with one
   byte replaced, or with an integer literal widened to 20 digits
   ([Test_lang.mutate]). The parser returns a program or raises
   [Asm.Error], nothing else. *)
let suite_listings =
  lazy
    (List.map
       (fun b -> render (Ipet_suite.Bspec.compile b).Compile.prog)
       Ipet_suite.Suite.all)

let prop_hostile_listings =
  QCheck.Test.make ~name:"hostile listing is a program or Error, never raises"
    ~count:500
    QCheck.(
      quad (int_bound 1000) (int_bound 2) (int_bound 100_000) (int_bound 255))
    (fun (which, kind, pos, byte) ->
      let listings = Lazy.force suite_listings in
      let text = List.nth listings (which mod List.length listings) in
      match Asm.parse (Test_lang.mutate text kind pos byte) with
      | _ | (exception Asm.Error _) -> true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip_random; prop_hostile_listings ]

let suite =
  [ ("hand-written listing", `Quick, test_hand_written);
    ("roundtrip compiled programs", `Quick, test_roundtrip_compiled);
    ("roundtrip executes identically", `Quick, test_roundtrip_executes_identically);
    ("float immediates roundtrip", `Quick, test_float_immediates_roundtrip);
    ("parse errors", `Quick, test_parse_errors);
    ("analyze from assembly alone", `Quick, test_analyze_from_assembly) ]
  @ props
