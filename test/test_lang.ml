(* Lexer / parser / typechecker / compiler unit tests. *)

module Lexer = Ipet_lang.Lexer
module Parser = Ipet_lang.Parser
module Ast = Ipet_lang.Ast
module Typecheck = Ipet_lang.Typecheck
module Frontend = Ipet_lang.Frontend
module P = Ipet_isa.Prog

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- lexer -------------------------------------------------------------- *)

let toks src = List.map (fun l -> l.Lexer.tok) (Lexer.tokenize src)

let test_lexer_basics () =
  check_bool "arith" true
    (toks "x = a + 42;"
     = [ Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.IDENT "a"; Lexer.PLUS;
         Lexer.INT_LIT 42; Lexer.SEMI; Lexer.EOF ]);
  check_bool "float" true (toks "1.5" = [ Lexer.FLOAT_LIT 1.5; Lexer.EOF ]);
  check_bool "exponent" true (toks "2.5e2" = [ Lexer.FLOAT_LIT 250.0; Lexer.EOF ]);
  check_bool "hex" true (toks "0xff" = [ Lexer.INT_LIT 255; Lexer.EOF ]);
  check_bool "two-char ops" true
    (toks "<= >= == != && || << >>"
     = [ Lexer.LE; Lexer.GE; Lexer.EQ; Lexer.NE; Lexer.AMPAMP; Lexer.BARBAR;
         Lexer.SHL; Lexer.SHR; Lexer.EOF ])

let test_lexer_comments () =
  check_bool "line comment" true (toks "a // c\nb" = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ]);
  check_bool "block comment" true (toks "a /* x\ny */ b" = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ])

let test_lexer_lines () =
  let located = Lexer.tokenize "a\nb\n\nc" in
  let lines = List.map (fun l -> l.Lexer.line) located in
  check_bool "line numbers" true (lines = [ 1; 2; 4; 4 ])

let test_lexer_error () =
  check_bool "illegal char" true
    (try ignore (Lexer.tokenize "a $ b"); false with Lexer.Error (_, 1) -> true)

(* literals spell E32 bit patterns: anything in [0, 2^32) is accepted and
   wrapped to its two's-complement value; anything wider — including
   literals so long they used to crash int_of_string — is a positioned
   diagnostic, never an uncaught exception *)
let test_lexer_int_literals () =
  check_bool "INT_MAX" true
    (toks "2147483647" = [ Lexer.INT_LIT 2147483647; Lexer.EOF ]);
  check_bool "INT_MAX+1 wraps to min_int32" true
    (toks "2147483648" = [ Lexer.INT_LIT (-2147483648); Lexer.EOF ]);
  check_bool "UINT_MAX wraps to -1" true
    (toks "4294967295" = [ Lexer.INT_LIT (-1); Lexer.EOF ]);
  check_bool "hex UINT_MAX wraps to -1" true
    (toks "0xFFFFFFFF" = [ Lexer.INT_LIT (-1); Lexer.EOF ]);
  check_bool "2^32 rejected with line" true
    (try ignore (Lexer.tokenize "x\n4294967296") ; false
     with Lexer.Error (_, 2) -> true);
  check_bool "absurdly long literal rejected, not crashed" true
    (try ignore (Lexer.tokenize (String.make 40 '9')); false
     with Lexer.Error (_, 1) -> true);
  check_bool "absurdly long hex literal rejected" true
    (try ignore (Lexer.tokenize ("0x" ^ String.make 40 'F')); false
     with Lexer.Error (_, 1) -> true)

(* -2147483648 must arrive in the simulator as min_int32: the lexer wraps
   the magnitude and the parser folds the unary minus back onto it *)
let test_min_int_end_to_end () =
  let compiled = Frontend.compile_string_exn "int f() { return -2147483648; }" in
  let m = Ipet_sim.Interp.create compiled.Ipet_lang.Compile.prog
      ~init:compiled.Ipet_lang.Compile.init_data
  in
  (match Ipet_sim.Interp.call m "f" [] with
   | Some (Ipet_isa.Value.Vint i) -> check_int "min_int32" (-2147483648) i
   | _ -> Alcotest.fail "expected int")

(* --- parser ------------------------------------------------------------- *)

let test_parse_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  (match e.Ast.desc with
   | Ast.Binop (Ast.Add, _, { Ast.desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
   | _ -> Alcotest.fail "expected 1 + (2 * 3)");
  let e = Parser.parse_expr_string "a < b && c < d || e" in
  (match e.Ast.desc with
   | Ast.Binop (Ast.Lor, { Ast.desc = Ast.Binop (Ast.Land, _, _); _ }, _) -> ()
   | _ -> Alcotest.fail "expected (a<b && c<d) || e")

let test_parse_unary_and_cast () =
  let e = Parser.parse_expr_string "-x + !y" in
  (match e.Ast.desc with
   | Ast.Binop (Ast.Add, { Ast.desc = Ast.Unop (Ast.Neg, _); _ },
                { Ast.desc = Ast.Unop (Ast.Lnot, _); _ }) -> ()
   | _ -> Alcotest.fail "expected (-x) + (!y)");
  let e = Parser.parse_expr_string "(float) n / 2.0" in
  (match e.Ast.desc with
   | Ast.Binop (Ast.Div, { Ast.desc = Ast.Cast (Ast.Tfloat, _); _ }, _) -> ()
   | _ -> Alcotest.fail "expected ((float) n) / 2.0")

let test_parse_program () =
  let src = {|
    int data[10];
    int total = 0;
    int sum(int n) {
      int i;
      int acc;
      acc = 0;
      for (i = 0; i < n; i = i + 1)
        acc = acc + data[i];
      return acc;
    }
    void main() { total = sum(10); }
  |} in
  let p = Parser.parse src in
  check_int "globals" 2 (List.length p.Ast.globals);
  check_int "funcs" 2 (List.length p.Ast.funcs);
  (match p.Ast.globals with
   | g :: _ ->
     check_bool "array size" true (g.Ast.gsize = Some 10);
     check_bool "name" true (g.Ast.gname = "data")
   | [] -> Alcotest.fail "no globals")

let test_parse_dangling_else () =
  let src = "int f(int a, int b) { if (a) if (b) return 1; else return 2; return 3; }" in
  let p = Parser.parse src in
  match (List.hd p.Ast.funcs).Ast.body with
  | [ { Ast.sdesc = Ast.If (_, [ { Ast.sdesc = Ast.If (_, _, else_b); _ } ], []); _ }; _ ] ->
    check_int "else attaches to inner if" 1 (List.length else_b)
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_error_reports_line () =
  check_bool "error line" true
    (try ignore (Parser.parse "int f() {\n  return 1 +;\n}"); false
     with Parser.Error (_, 2) -> true)

(* --- typechecker -------------------------------------------------------- *)

let expect_type_error src =
  match Frontend.compile_string src with
  | Error { message; _ } ->
    check_bool "is type error" true
      (String.length message >= 10 && String.sub message 0 10 = "type error")
  | Ok _ -> Alcotest.fail "expected a type error"

let test_type_errors () =
  expect_type_error "int f() { return x; }";
  expect_type_error "int f() { float g; g = 1.0; return g; }";
  expect_type_error "int f() { int a; a = 1; return a[0]; }";
  expect_type_error "int f(int a) { return f(a, a); }";
  expect_type_error "void f() { return 1; }";
  expect_type_error "int f() { break; return 0; }";
  expect_type_error "int f() { int a; int a; return 0; }";
  expect_type_error "float x; float y; int f() { if (x + y) return 1; return 0; }"

let test_type_promotion () =
  (* int literal promoted to float in mixed arithmetic and assignment *)
  match Frontend.compile_string
          "float f(int n) { float r; r = n + 0.5; return r * 2; }" with
  | Ok _ -> ()
  | Error { message; line } ->
    Alcotest.fail (Printf.sprintf "line %d: %s" line message)

(* --- compiler ----------------------------------------------------------- *)

let compile_func src name =
  let compiled = Frontend.compile_string_exn src in
  P.find_func compiled.Ipet_lang.Compile.prog name

let test_compile_shapes () =
  (* if/else produces the paper's Fig. 2 diamond: 4 blocks *)
  let f = compile_func
      "int f(int p) { int q; if (p) q = 1; else q = 2; return q; }" "f" in
  check_int "if-else blocks" 4 (Array.length f.P.blocks);
  (* while produces the paper's Fig. 3 shape: pre-header, test, body, exit *)
  let f = compile_func
      "int g(int p) { int q; q = p; while (q < 10) q = q + 1; return q; }" "g" in
  check_int "while blocks" 4 (Array.length f.P.blocks)

let test_compile_short_circuit () =
  (* && must produce an extra test block, not an eager And *)
  let f = compile_func
      "int h(int a, int b) { if (a > 0 && b > 0) return 1; return 0; }" "h" in
  check_bool "more than diamond" true (Array.length f.P.blocks >= 4)

let test_compile_dead_code_pruned () =
  let f = compile_func
      "int f(int a) { return a; a = a + 1; return a; }" "f" in
  check_int "single block" 1 (Array.length f.P.blocks)

let test_compile_validates () =
  let compiled = Frontend.compile_string_exn
      "int fib(int n) { int a; int b; int i; int t; a = 0; b = 1; \
       for (i = 0; i < n; i = i + 1) { t = a + b; a = b; b = t; } return a; }"
  in
  check_bool "valid" true (P.validate compiled.Ipet_lang.Compile.prog = Ok ())

let suite =
  [ ("lexer basics", `Quick, test_lexer_basics);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer line numbers", `Quick, test_lexer_lines);
    ("lexer error", `Quick, test_lexer_error);
    ("lexer 32-bit literals", `Quick, test_lexer_int_literals);
    ("min_int end to end", `Quick, test_min_int_end_to_end);
    ("parser precedence", `Quick, test_parse_precedence);
    ("parser unary and cast", `Quick, test_parse_unary_and_cast);
    ("parser whole program", `Quick, test_parse_program);
    ("parser dangling else", `Quick, test_parse_dangling_else);
    ("parser error line", `Quick, test_parse_error_reports_line);
    ("typecheck rejects bad programs", `Quick, test_type_errors);
    ("typecheck int->float promotion", `Quick, test_type_promotion);
    ("compile control-flow shapes", `Quick, test_compile_shapes);
    ("compile short-circuit", `Quick, test_compile_short_circuit);
    ("compile dead code pruned", `Quick, test_compile_dead_code_pruned);
    ("compile output validates", `Quick, test_compile_validates) ]

(* --- do-while ---------------------------------------------------------- *)

let test_do_while_semantics () =
  let compiled = Frontend.compile_string_exn
      "int f(int n) { int i; int s; s = 0; i = 0; \
       do { s = s + i; i = i + 1; } while (i < n); return s; }"
  in
  let m = Ipet_sim.Interp.create compiled.Ipet_lang.Compile.prog
      ~init:compiled.Ipet_lang.Compile.init_data
  in
  let run n =
    match Ipet_sim.Interp.call m "f" [ Ipet_isa.Value.Vint n ] with
    | Some (Ipet_isa.Value.Vint i) -> i
    | _ -> Alcotest.fail "expected int"
  in
  check_int "sum 0..4" 10 (run 5);
  (* do-while always runs the body at least once, even when the condition
     is false on entry *)
  check_int "runs once for n=0" 0 (run 0)

let test_do_while_cfg_shape () =
  (* the back edge targets the body top, not a test block: the loop header
     is the body *)
  let f = compile_func
      "int f(int n) { int i; i = 0; do i = i + 1; while (i < n); return i; }" "f"
  in
  let cfg = Ipet_cfg.Cfg.of_func f in
  let dom = Ipet_cfg.Dominators.compute cfg in
  let loops = Ipet_cfg.Loops.detect cfg dom in
  check_int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  (* in a do-while the header block contains real work (the body), and the
     condition block is inside the loop *)
  check_bool "header has instructions" true
    (Array.length f.P.blocks.(l.Ipet_cfg.Loops.header).P.instrs > 0)

let test_do_while_analysis () =
  let src =
    "int f(int n) { int i; int s; s = 0; i = 0;\n\
     do {\n\
     s = s + i;\n\
     i = i + 1;\n\
     } while (i < 12);\n\
     return s; }"
  in
  let compiled = Frontend.compile_string_exn src in
  (* the do-while header is the body's first line (line 3) *)
  let result =
    Ipet.Analysis.analyze
      (Ipet.Analysis.spec compiled.Ipet_lang.Compile.prog ~root:"f"
         ~loop_bounds:[ Ipet.Annotation.loop ~func:"f" ~line:3 ~lo:11 ~hi:11 ])
  in
  let m = Ipet_sim.Interp.create compiled.Ipet_lang.Compile.prog
      ~init:compiled.Ipet_lang.Compile.init_data
  in
  Ipet_sim.Interp.flush_cache m;
  ignore (Ipet_sim.Interp.call m "f" [ Ipet_isa.Value.Vint 0 ]);
  let t = Ipet_sim.Interp.cycles m in
  check_bool "bound holds" true
    (result.Ipet.Analysis.bcet.Ipet.Analysis.cycles <= t
     && t <= result.Ipet.Analysis.wcet.Ipet.Analysis.cycles)

let test_do_while_break_continue () =
  let src = {|
    int f(int n) {
      int i; int s;
      s = 0; i = 0;
      do {
        i = i + 1;
        if (i == 3) continue;
        if (i == 8) break;
        s = s + i;
      } while (i < n);
      return s;
    }
  |} in
  let compiled = Frontend.compile_string_exn src in
  let m = Ipet_sim.Interp.create compiled.Ipet_lang.Compile.prog
      ~init:compiled.Ipet_lang.Compile.init_data
  in
  match Ipet_sim.Interp.call m "f" [ Ipet_isa.Value.Vint 100 ] with
  | Some (Ipet_isa.Value.Vint r) ->
    (* 1+2+4+5+6+7 = 25 (3 skipped by continue, loop broken at 8) *)
    check_int "break/continue in do-while" 25 r
  | _ -> Alcotest.fail "expected int"

(* Hostile source text: suite programs truncated, with one byte
   replaced, or with an integer literal widened to 20 digits. The
   frontend answers [Ok] or [Error] and never raises (an exception fails
   the property). *)
let mutate src kind pos byte =
  let len = String.length src in
  let pos = pos mod (len + 1) in
  match kind with
  | 0 -> String.sub src 0 pos
  | 1 ->
    let b = Bytes.of_string src in
    Bytes.set b (pos mod len) (Char.chr byte);
    Bytes.to_string b
  | _ ->
    (* the first digit run at or after [pos], or [pos] itself *)
    let is_digit i = i < len && src.[i] >= '0' && src.[i] <= '9' in
    let rec find i = if i >= len || is_digit i then i else find (i + 1) in
    let start = if find pos < len then find pos else pos in
    let rec stop i = if is_digit i then stop (i + 1) else i in
    String.sub src 0 start ^ "98765432109876543210"
    ^ String.sub src (stop start) (len - stop start)

let prop_hostile_sources =
  QCheck.Test.make
    ~name:"frontend: hostile source is Ok or Error, never raises" ~count:500
    QCheck.(
      quad (int_bound 1000) (int_bound 2) (int_bound 100_000) (int_bound 255))
    (fun (which, kind, pos, byte) ->
      let all = Ipet_suite.Suite.all in
      let b = List.nth all (which mod List.length all) in
      match
        Frontend.compile_string (mutate b.Ipet_suite.Bspec.source kind pos byte)
      with
      | Ok _ | Error _ -> true)

let suite =
  suite
  @ [ ("do-while semantics", `Quick, test_do_while_semantics);
      ("do-while CFG shape", `Quick, test_do_while_cfg_shape);
      ("do-while analysis", `Quick, test_do_while_analysis);
      ("do-while break/continue", `Quick, test_do_while_break_continue);
      QCheck_alcotest.to_alcotest prop_hostile_sources ]
