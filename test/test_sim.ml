(* End-to-end simulator tests: compile MC programs and execute them. *)

module Frontend = Ipet_lang.Frontend
module Compile = Ipet_lang.Compile
module Interp = Ipet_sim.Interp
module V = Ipet_isa.Value
module Icache = Ipet_machine.Icache

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?cache src =
  let compiled = Frontend.compile_string_exn src in
  Interp.create ?cache compiled.Compile.prog ~init:compiled.Compile.init_data

let run_int ?cache src fname args =
  let m = machine ?cache src in
  match Interp.call m fname (List.map (fun i -> V.Vint i) args) with
  | Some (V.Vint i) -> (i, m)
  | Some (V.Vfloat _) -> Alcotest.fail "expected an int result"
  | None -> Alcotest.fail "expected a result"

let test_arith () =
  let r, _ = run_int "int f(int a, int b) { return a * b + a % b - (a / b); }"
      "f" [ 17; 5 ] in
  check_int "17*5+17%5-17/5" (85 + 2 - 3) r

let test_fib () =
  let src = "int fib(int n) { int a; int b; int i; int t; a = 0; b = 1; \
             for (i = 0; i < n; i = i + 1) { t = a + b; a = b; b = t; } return a; }" in
  let r, _ = run_int src "fib" [ 10 ] in
  check_int "fib 10" 55 r

let test_float_math () =
  let src = "float avg(int n) { float s; int i; s = 0.0; \
             for (i = 1; i <= n; i = i + 1) s = s + i; return s / n; }" in
  let m = machine src in
  match Interp.call m "avg" [ V.Vint 10 ] with
  | Some (V.Vfloat f) -> check_bool "avg 1..10 = 5.5" true (Float.equal f 5.5)
  | Some (V.Vint _) | None -> Alcotest.fail "expected float"

let test_arrays_and_globals () =
  let src = {|
    int data[8];
    int sum;
    void fill(int n) {
      int i;
      for (i = 0; i < n; i = i + 1) data[i] = i * i;
    }
    void total(int n) {
      int i;
      sum = 0;
      for (i = 0; i < n; i = i + 1) sum = sum + data[i];
    }
  |} in
  let m = machine src in
  ignore (Interp.call m "fill" [ V.Vint 8 ]);
  ignore (Interp.call m "total" [ V.Vint 8 ]);
  check_int "sum of squares" 140 (V.as_int (Interp.read_global m "sum" 0));
  check_int "data[3]" 9 (V.as_int (Interp.read_global m "data" 3))

let test_local_arrays () =
  let src = {|
    int rev3(int a, int b, int c) {
      int t[3];
      t[0] = a; t[1] = b; t[2] = c;
      return t[2] * 100 + t[1] * 10 + t[0];
    }
  |} in
  let r, _ = run_int src "rev3" [ 1; 2; 3 ] in
  check_int "reversed digits" 321 r

let test_global_initializers () =
  let src = {|
    int lut[5] = { 10, 20, 30, 40, 50 };
    float pi = 3.25;
    int get(int i) { return lut[i]; }
  |} in
  let m = machine src in
  check_int "lut[2]" 30
    (match Interp.call m "get" [ V.Vint 2 ] with
     | Some (V.Vint i) -> i
     | _ -> -1);
  check_bool "float global" true
    (Float.equal (V.as_float (Interp.read_global m "pi" 0)) 3.25)

let test_short_circuit_semantics () =
  (* b() must not run when a() is false: a() would trap on division by zero
     if evaluation were eager *)
  let src = {|
    int safe(int x) {
      if (x != 0 && 100 / x > 5) return 1;
      return 0;
    }
  |} in
  let r, _ = run_int src "safe" [ 0 ] in
  check_int "short circuit avoids division by zero" 0 r;
  let r, _ = run_int src "safe" [ 10 ] in
  check_int "10 -> 100/10=10>5" 1 r

let test_break_continue () =
  let src = {|
    int f(int n) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < n; i = i + 1) {
        if (i == 3) continue;
        if (i == 7) break;
        s = s + i;
      }
      return s;
    }
  |} in
  let r, _ = run_int src "f" [ 100 ] in
  check_int "0+1+2+4+5+6" 18 r

let test_calls_and_recursion_free () =
  let src = {|
    int square(int x) { return x * x; }
    int sumsq(int n) {
      int i; int s;
      s = 0;
      for (i = 1; i <= n; i = i + 1) s = s + square(i);
      return s;
    }
  |} in
  let r, m = run_int src "sumsq" [ 4 ] in
  check_int "1+4+9+16" 30 r;
  (* f-edge execution count: square called once per iteration *)
  let f = Ipet_isa.Prog.find_func (Interp.program m) "sumsq" in
  let body_with_call =
    Array.to_list f.Ipet_isa.Prog.blocks
    |> List.find (fun b -> Ipet_isa.Prog.calls_of_block b <> [])
  in
  check_int "call count" 4
    (Interp.call_count m ~caller:"sumsq" ~block:body_with_call.Ipet_isa.Prog.id
       ~occurrence:0)

let test_counters_match_semantics () =
  let src = "int f(int n) { int i; int s; s = 0; \
             while (i < n) { i = i + 1; s = s + i; } return s; }" in
  (* note: i starts uninitialized = 0 in our semantics *)
  let _, m = run_int src "f" [ 5 ] in
  let counts = Interp.block_counts m in
  (* header runs n+1 times, body n times *)
  let f = Ipet_isa.Prog.find_func (Interp.program m) "f" in
  let header =
    (* block with a Branch terminator *)
    Array.to_list f.Ipet_isa.Prog.blocks
    |> List.find (fun (b : Ipet_isa.Prog.block) ->
      match b.Ipet_isa.Prog.term with
      | Ipet_isa.Instr.Branch _ -> true
      | _ -> false)
  in
  check_int "header count" 6
    (Interp.block_count m ~func:"f" ~block:header.Ipet_isa.Prog.id);
  check_bool "entry executed once" true
    (List.assoc ("f", 0) counts = 1)

let test_shift_semantics () =
  (* regression: shift amounts were masked with [land 62], clearing bit 0,
     so x << 1 simulated as x << 0 *)
  let src = "int f(int x, int s) { return x << s; }" in
  let sr_src = "int f(int x, int s) { return x >> s; }" in
  List.iter
    (fun (x, s) ->
      let r, _ = run_int src "f" [ x; s ] in
      check_int (Printf.sprintf "%d << %d" x s) (V.wrap32 (x lsl s)) r)
    [ (1, 1); (3, 3); (5, 5); (1, 7); (123, 13); (-9, 1); (7, 0); (1, 31) ];
  (* 32-bit wrap: bit 31 is the sign *)
  let r, _ = run_int src "f" [ 1; 31 ] in
  check_int "1 << 31 is min_int32" V.min_int32 r;
  List.iter
    (fun (x, s) ->
      let r, _ = run_int sr_src "f" [ x; s ] in
      check_int (Printf.sprintf "%d >> %d" x s) (x asr s) r)
    [ (2, 1); (256, 3); (-256, 5); (12345, 7); (-1, 1); (7, 0) ];
  (* amounts are masked to 6 bits; 63 clamps (shl to 0, shr to the sign) *)
  let r, _ = run_int src "f" [ 5; 64 ] in
  check_int "5 << 64 wraps to << 0" 5 r;
  let r, _ = run_int src "f" [ 5; 63 ] in
  check_int "5 << 63 saturates to 0" 0 r;
  let r, _ = run_int sr_src "f" [ -5; 63 ] in
  check_int "-5 >> 63 keeps the sign" (-1) r

let test_division_by_zero_traps () =
  check_bool "trap" true
    (try ignore (run_int "int f(int a) { return 1 / a; }" "f" [ 0 ]); false
     with Interp.Runtime_error _ -> true)

let test_out_of_fuel () =
  let src = "int f() { while (1) { } return 0; }" in
  let compiled = Frontend.compile_string_exn src in
  let m = Interp.create ~fuel:1000 compiled.Compile.prog ~init:[] in
  check_bool "infinite loop detected" true
    (try ignore (Interp.call m "f" []); false with Interp.Out_of_fuel -> true)

let test_cycle_accounting () =
  let src = "int f(int n) { int i; int s; s = 0; \
             for (i = 0; i < n; i = i + 1) s = s + i; return s; }" in
  let _, m = run_int src "f" [ 100 ] in
  let cycles = Interp.cycles m in
  let instrs = Interp.instructions m in
  check_bool "cycles >= instructions" true (cycles >= instrs);
  check_bool "ran hundreds of instructions" true (instrs > 400);
  (* a tiny loop fits in the cache: mostly hits after the first iteration *)
  check_bool "warm loop mostly hits" true
    (Interp.cache_hits m > 10 * Interp.cache_misses m)

let test_cold_vs_warm_cache () =
  let src = "int f(int n) { int i; int s; s = 0; \
             for (i = 0; i < n; i = i + 1) s = s + i; return s; }" in
  let compiled = Frontend.compile_string_exn src in
  let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
  ignore (Interp.call m "f" [ V.Vint 50 ]);
  let cold = Interp.cycles m in
  Interp.reset_stats m;  (* keep cache contents *)
  ignore (Interp.call m "f" [ V.Vint 50 ]);
  let warm = Interp.cycles m in
  check_bool "warm run is faster" true (warm < cold)

let test_flush_cache_restores_cold () =
  let src = "int f(int n) { int i; int s; s = 0; \
             for (i = 0; i < n; i = i + 1) s = s + i; return s; }" in
  let compiled = Frontend.compile_string_exn src in
  let m = Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data in
  ignore (Interp.call m "f" [ V.Vint 50 ]);
  let cold1 = Interp.cycles m in
  Interp.reset_stats m;
  Interp.flush_cache m;
  ignore (Interp.call m "f" [ V.Vint 50 ]);
  let cold2 = Interp.cycles m in
  check_int "flushed run repeats cold timing" cold1 cold2

let suite =
  [ ("integer arithmetic", `Quick, test_arith);
    ("fibonacci loop", `Quick, test_fib);
    ("float math", `Quick, test_float_math);
    ("global arrays", `Quick, test_arrays_and_globals);
    ("local arrays", `Quick, test_local_arrays);
    ("global initializers", `Quick, test_global_initializers);
    ("short-circuit semantics", `Quick, test_short_circuit_semantics);
    ("break and continue", `Quick, test_break_continue);
    ("function calls and f-edges", `Quick, test_calls_and_recursion_free);
    ("block counters", `Quick, test_counters_match_semantics);
    ("shift semantics (odd amounts)", `Quick, test_shift_semantics);
    ("division by zero traps", `Quick, test_division_by_zero_traps);
    ("out of fuel", `Quick, test_out_of_fuel);
    ("cycle accounting sanity", `Quick, test_cycle_accounting);
    ("cold vs warm cache", `Quick, test_cold_vs_warm_cache);
    ("flush restores cold timing", `Quick, test_flush_cache_restores_cold) ]

(* --- register file and memory -------------------------------------------
   Hand-written listings pin the register semantics a compiled program
   never exercises: mistyped words, float branch tests, kinds across moves
   and calls, and registers no instruction defines. *)

let asm_machine ?dcache text =
  Interp.create ?dcache (Ipet_isa.Asm_parser.parse text) ~init:[]

let asm_call ?dcache ?(args = []) text fname =
  Interp.call (asm_machine ?dcache text) fname args

let show = function
  | None -> "void"
  | Some (V.Vint _ as v) -> Format.asprintf "int %a" V.pp v
  | Some (V.Vfloat _ as v) -> Format.asprintf "float %a" V.pp v

let check_result what expected r = Alcotest.(check string) what expected (show r)

let raises_runtime what message f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" what
  | exception Interp.Runtime_error m -> Alcotest.(check string) what message m

let body instrs = "f(0 params, 0 frame words):\nB0:\n" ^ instrs ^ "\n"

let test_mistyped_words () =
  let float_word = "Value.as_int: float word" in
  let int_word = "Value.as_float: int word" in
  let run instrs () = asm_call (body instrs) "f" in
  raises_runtime "a float register in an int ALU op" float_word
    (run "  mov r1, #1.5\n  add r2, #1, r1\n  ret r2");
  raises_runtime "a float immediate in an int ALU op" float_word
    (run "  add r2, #1, #2.5\n  ret r2");
  raises_runtime "a float register in an int compare" float_word
    (run "  mov r1, #1.5\n  cmp.lt r2, r1, #3\n  ret r2");
  raises_runtime "a float register as an address index" float_word
    (run "  mov r1, #0.0\n  ld r2, [0+r1]\n  ret r2");
  raises_runtime "a float register to itof" float_word
    (run "  mov r1, #1.5\n  itof r2, r1\n  ret r2");
  raises_runtime "an int register in an FPU op" int_word
    (run "  mov r1, #3\n  fadd r2, r1, #1.0\n  ret r2");
  raises_runtime "an int immediate in an FPU op" int_word
    (run "  fmul r2, #2.0, #3\n  ret r2");
  raises_runtime "an int register in a float compare" int_word
    (run "  mov r1, #3\n  fcmp.eq r2, #1.0, r1\n  ret r2");
  raises_runtime "an int register to ftoi" int_word
    (run "  mov r1, #3\n  ftoi r2, r1\n  ret r2");
  (* a register written with the other kind reads as its new kind *)
  check_result "a register rewritten with an int" "int 4"
    (asm_call (body "  mov r1, #1.5\n  mov r1, #3\n  add r2, r1, #1\n  ret r2") "f")

let branch_on = {|
f(1 params, 0 frame words):
B0:
  br r0 ? B1 : B2
B1:
  ret #1
B2:
  ret #0
g(0 params, 0 frame words):
B0:
  mov r1, #-0.0
  br r1 ? B1 : B2
B1:
  ret #1
B2:
  mov r2, #nan
  br r2 ? B3 : B4
B3:
  ret #2
B4:
  ret #0
|}

let test_float_branches () =
  let taken v = asm_call branch_on "f" ~args:[ v ] in
  check_result "0.0 falls through" "int 0" (taken (V.Vfloat 0.0));
  check_result "-0.0 falls through" "int 0" (taken (V.Vfloat (-0.0)));
  check_result "nan is taken" "int 1" (taken (V.Vfloat Float.nan));
  check_result "0.25 is taken" "int 1" (taken (V.Vfloat 0.25));
  check_result "int 0 falls through" "int 0" (taken (V.Vint 0));
  check_result "int -3 is taken" "int 1" (taken (V.Vint (-3)));
  check_result "a moved -0.0 falls through and a moved nan is taken" "int 2"
    (asm_call branch_on "g")

let kinds = {|
id(1 params, 0 frame words):
B0:
  ret r0
nothing(0 params, 0 frame words):
B0:
  ret
f(0 params, 0 frame words):
B0:
  mov r1, #2.5
  mov r2, r1
  call r3, id(r2)
  call r4, id(#0.25)
  fadd r5, r3, r4
  call r6, id(#7)
  add r7, r6, #1
  call r8, nothing()
  add r9, r8, r7
  itof r10, r9
  fadd r11, r10, r5
  ret r11
g(0 params, 0 frame words):
B0:
  mov r1, #1.5
  call r2, id(r1)
  ret r2
|}

let test_kinds_across_moves_and_calls () =
  (* 2.5 + 0.25 after a move and two calls, (7 + 1) + 0 from an int
     return and a void one *)
  check_result "kinds survive moves, arguments and returns" "float 10.75"
    (asm_call kinds "f");
  check_result "a float result leaves as a float word" "float 1.5"
    (asm_call kinds "g");
  check_result "an argument word comes back as given" "float -0"
    (asm_call kinds "id" ~args:[ V.Vfloat (-0.0) ])

let test_undefined_registers () =
  check_result "a used, never written register is int 0" "int 5"
    (asm_call (body "  add r1, r40, #5\n  ret r1") "f");
  check_result "a returned, never written register is int 0" "int 0"
    (asm_call (body "  ret r60") "f");
  check_result "a branch on a never written register falls through" "int 0"
    (asm_call
       "f(0 params, 0 frame words):\nB0:\n  br r50 ? B1 : B2\nB1:\n  ret #1\nB2:\n  ret #0\n"
       "f");
  let m = asm_machine (".global g @ 0 (1 words)\n" ^ body "  st r45, [0]\n  ret") in
  ignore (Interp.call m "f" []);
  check_result "a stored, never written register is int 0" "int 0"
    (Some (Interp.read_global m "g" 0))

let test_dcache_negative_load () =
  let dcache = { Icache.size_bytes = 256; line_bytes = 16; miss_penalty = 6 } in
  match asm_call ~dcache (body "  mov r1, #-5\n  ld r2, [0+r1]\n  ret r2") "f" with
  | _ -> Alcotest.fail "a load from a negative address ran"
  | exception Interp.Runtime_error m ->
    Alcotest.(check string) "the fault names the address"
      "load from invalid address -5" m

(* a run that writes globals and its stack frame, and reads a stack word
   before writing it *)
let scribbler = {|
  int g[4];
  int k = 7;
  int far[10];
  int f(int a) {
    int t[3];
    int before;
    before = t[1];
    t[0] = a; t[1] = a * 2; t[2] = a * 3;
    g[a & 3] = t[0] + t[1] + t[2];
    k = k + a;
    return before * 1000 + k;
  }
|}

let globals_image m =
  List.concat_map
    (fun (gl : Ipet_isa.Prog.global) ->
      List.init gl.Ipet_isa.Prog.size_words (fun i ->
          show (Some (Interp.read_global m gl.Ipet_isa.Prog.gname i))))
    (Interp.program m).Ipet_isa.Prog.globals

let test_reset_memory () =
  let compiled = Frontend.compile_string_exn scribbler in
  let init = compiled.Compile.init_data in
  let fresh () = Interp.create compiled.Compile.prog ~init in
  let run m = show (Interp.call m "f" [ V.Vint 5 ]) in
  let reference = fresh () in
  let expected = run reference in
  Alcotest.(check string) "the first run reads a zero stack word" "int 12"
    expected;
  let m = fresh () in
  ignore (run m);
  Interp.reset_memory m ~init;
  Interp.reset_stats m;
  Interp.flush_cache m;
  Alcotest.(check string) "same result after a reset" expected (run m);
  check_int "same cycles after a reset" (Interp.cycles reference) (Interp.cycles m);
  Alcotest.(check (list string)) "same globals after a reset"
    (globals_image reference) (globals_image m);
  (* a word the run never wrote, written from outside, is cleared too *)
  Interp.write_global m "far" 9 (V.Vint 42);
  Interp.reset_memory m ~init;
  check_result "a write_global past the written range is cleared" "int 0"
    (Some (Interp.read_global m "far" 9));
  check_result "the initializer is restored" "int 7"
    (Some (Interp.read_global m "k" 0));
  Interp.write_global m "far" 0 (V.Vfloat 1.5);
  Interp.reset_memory m ~init:[];
  Alcotest.(check (list string)) "a reset without init clears every word"
    (globals_image (Interp.create compiled.Compile.prog ~init:[]))
    (globals_image m)

let suite =
  suite
  @ [ ("mistyped words raise Value's errors", `Quick, test_mistyped_words);
      ("float branches test <> 0.0", `Quick, test_float_branches);
      ("moves, arguments and returns keep a word's kind", `Quick,
       test_kinds_across_moves_and_calls);
      ("an undefined register reads as int 0", `Quick, test_undefined_registers);
      ("a d-cached load from a negative address is a runtime error", `Quick,
       test_dcache_negative_load);
      ("reset_memory restores a fresh machine's memory", `Quick,
       test_reset_memory) ]

(* --- profiling --------------------------------------------------------- *)

let test_profile_accounts_all_cycles () =
  let src = {|
    int helper(int x) { int i; int s; s = 0;
      for (i = 0; i < 50; i = i + 1) s = s + x;
      return s; }
    int f(int n) { return helper(n) + helper(n + 1); }
  |} in
  let compiled = Frontend.compile_string_exn src in
  let m =
    Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data
  in
  ignore (Interp.call m "f" [ V.Vint 2 ]);
  let rows = Interp.block_cycles m in
  let attributed = List.fold_left (fun acc (_, c) -> acc + c) 0 rows in
  check_int "all cycles attributed" (Interp.cycles m) attributed;
  (* the helper's loop dominates the profile *)
  let by_function func =
    List.fold_left
      (fun acc ((f, _), c) -> if f = func then acc + c else acc)
      0 rows
  in
  check_bool "helper is hottest" true (by_function "helper" > by_function "f");
  (* rendering does not raise and mentions the hot function *)
  let text = Format.asprintf "%a" Interp.pp_profile m in
  check_bool "render mentions helper" true
    (let nn = String.length "helper" in
     let rec go i = i + nn <= String.length text
                    && (String.sub text i nn = "helper" || go (i + 1)) in
     go 0)

(* [cinderella sim --profile] prints the machine's own attribution: a
   call's return block is charged only its own cycles, and the caller's
   cycles after the call stay with the caller's block *)
let test_cli_profile_is_block_cycles () =
  let src = {|int acc;
int leaf(int x) { return x + 1; }
int f(int n) {
  int i; int s;
  s = leaf(n);
  for (i = 0; i < 40; i = i + 1) s = s + i * n;
  acc = s;
  return s;
}
|} in
  let file = Filename.temp_file "prof" ".mc" in
  let out = Filename.temp_file "prof" ".txt" in
  let oc = open_out_bin file in
  output_string oc src;
  close_out oc;
  let status =
    Test_obs.run_cinderella ~stdout_to:out ~stderr_to:Filename.null
      [ "sim"; file; "-r"; "f"; "--args"; "3"; "--profile" ]
  in
  check_bool "sim exits 0" true (status = Unix.WEXITED 0);
  let rows =
    In_channel.with_open_bin out In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           try
             Scanf.sscanf l "%s B%d %d %d %_s%!" (fun f b n c ->
                 Some ((f, b), (n, c)))
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let compiled = Frontend.compile_string_exn src in
  let m =
    Interp.create compiled.Compile.prog ~init:compiled.Compile.init_data
  in
  ignore (Interp.call m "f" [ V.Vint 3 ]);
  let expected =
    List.map
      (fun (key, n) -> (key, (n, List.assoc key (Interp.block_cycles m))))
      (Interp.block_counts m)
  in
  check_bool "one row per executed block, equal to block_cycles" true
    (List.sort compare rows = List.sort compare expected);
  check_int "f B0" 28 (snd (List.assoc ("f", 0) rows));
  check_int "leaf B0" 8 (snd (List.assoc ("leaf", 0) rows));
  check_int "the rows sum to the run's cycles" (Interp.cycles m)
    (List.fold_left (fun acc (_, (_, c)) -> acc + c) 0 rows)

(* [br r0 ? B1 : B1] takes one edge either way, but its outcomes cost
   differently: the not-taken run is charged the not-taken terminator *)
let test_same_target_branch () =
  let prog =
    Ipet_isa.Asm_parser.parse
      "f(1 params, 1 frame words):\nB0:\n  br r0 ? B1 : B1\nB1:\n  ret r0\n"
  in
  List.iter
    (fun (mach, not_taken, taken) ->
      let id = Ipet_machine.Machine.id mach in
      List.iter
        (fun (arg, expected) ->
          let m = Interp.create ~mach prog ~init:[] in
          ignore (Interp.call m "f" [ V.Vint arg ]);
          check_int (Printf.sprintf "%s f(%d) cycles" id arg) expected
            (Interp.cycles m);
          check_int (Printf.sprintf "%s f(%d) block cycles" id arg) expected
            (List.fold_left (fun acc (_, c) -> acc + c) 0
               (Interp.block_cycles m));
          check_int (Printf.sprintf "%s f(%d) edge B0->B1" id arg) 1
            (Interp.edge_count m ~func:"f" ~src:0 ~dst:1);
          check_int (Printf.sprintf "%s f(%d) context edge B0->B1" id arg) 1
            (Interp.ctx_edge_count m ~path:[] ~func:"f" ~src:0 ~dst:1))
        [ (0, not_taken); (1, taken) ])
    [ (Ipet_machine.Machine.e32, 16, 18); (Ipet_machine.Machine.m7, 10, 12) ]

let suite =
  suite
  @ [ ("profile accounts all cycles", `Quick, test_profile_accounts_all_cycles);
      ("sim --profile prints the machine's block cycles", `Quick,
       test_cli_profile_is_block_cycles);
      ("a same-target branch keeps both outcomes' cycles", `Quick,
       test_same_target_branch) ]

(* --- fast-path differential test ----------------------------------------
   The decoded interpreter's counters must be indistinguishable from a
   direct re-count of the execution.  [set_block_hook] reports every
   basic-block entry; since block bodies are straight-line, the event
   stream determines the whole control flow: after a block's call sites
   are exhausted the next event is a terminator successor, and before that
   it is unconditionally the next callee's entry block.  A shadow call
   stack replays that and recounts blocks, edges, calls and every
   context-qualified counter independently. *)

module P = Ipet_isa.Prog
module Bspec = Ipet_suite.Bspec

type shadow_frame = {
  sf_func : P.func;
  mutable sf_block : int;
  mutable sf_next_call : int;
  sf_path : Interp.site list;  (* root-first *)
}

type recount = {
  r_counts : (string * int, int) Hashtbl.t;
  r_edges : (string * int * int, int) Hashtbl.t;
  r_calls : (string * int * int, int) Hashtbl.t;
  r_ctx_counts : (Interp.site list * string * int, int) Hashtbl.t;
  r_ctx_edges : (Interp.site list * string * int * int, int) Hashtbl.t;
  r_ctx_calls : (Interp.site list * string * int * int, int) Hashtbl.t;
  r_ctx_entries : (Interp.site list * string, int) Hashtbl.t;
}

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let recount_run prog root hook_runner =
  let r =
    { r_counts = Hashtbl.create 64;
      r_edges = Hashtbl.create 64;
      r_calls = Hashtbl.create 16;
      r_ctx_counts = Hashtbl.create 64;
      r_ctx_edges = Hashtbl.create 64;
      r_ctx_calls = Hashtbl.create 16;
      r_ctx_entries = Hashtbl.create 16 }
  in
  let stack = ref [] in
  let enter func path =
    bump r.r_ctx_entries (path, func.P.name);
    stack := { sf_func = func; sf_block = 0; sf_next_call = 0; sf_path = path } :: !stack
  in
  let count_block f b path =
    bump r.r_counts (f, b);
    bump r.r_ctx_counts (path, f, b)
  in
  let on_event f b =
    let rec resolve () =
      match !stack with
      | [] ->
        Alcotest.(check string) "root entry function" root f;
        Alcotest.(check int) "root entry block" 0 b;
        enter (P.find_func prog root) [];
        count_block f b []
      | top :: rest ->
        let calls = P.calls_of_block top.sf_func.P.blocks.(top.sf_block) in
        if top.sf_next_call < List.length calls then begin
          let callee = List.nth calls top.sf_next_call in
          Alcotest.(check string) "call transition enters callee" callee f;
          Alcotest.(check int) "callee entered at block 0" 0 b;
          let occurrence = top.sf_next_call in
          let site = (top.sf_func.P.name, top.sf_block, occurrence) in
          bump r.r_calls site;
          bump r.r_ctx_calls
            (top.sf_path, top.sf_func.P.name, top.sf_block, occurrence);
          top.sf_next_call <- top.sf_next_call + 1;
          let path = top.sf_path @ [ site ] in
          enter (P.find_func prog callee) path;
          count_block f b path
        end
        else
          match top.sf_func.P.blocks.(top.sf_block).P.term with
          | Ipet_isa.Instr.Return _ ->
            stack := rest;
            resolve ()
          | Ipet_isa.Instr.Jump t ->
            Alcotest.(check string) "jump stays in function" top.sf_func.P.name f;
            Alcotest.(check int) "jump target" t b;
            bump r.r_edges (f, top.sf_block, b);
            bump r.r_ctx_edges (top.sf_path, f, top.sf_block, b);
            top.sf_block <- b;
            top.sf_next_call <- 0;
            count_block f b top.sf_path
          | Ipet_isa.Instr.Branch (_, t1, t2) ->
            Alcotest.(check string) "branch stays in function" top.sf_func.P.name f;
            check_bool "branch target" true (b = t1 || b = t2);
            bump r.r_edges (f, top.sf_block, b);
            bump r.r_ctx_edges (top.sf_path, f, top.sf_block, b);
            top.sf_block <- b;
            top.sf_next_call <- 0;
            count_block f b top.sf_path
    in
    resolve ()
  in
  hook_runner on_event;
  r

let assert_recount_matches name m prog r =
  (* plain block counts: the interpreter view must equal the recount exactly *)
  let recounted =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.r_counts [] |> List.sort compare
  in
  Alcotest.(check (list (pair (pair string int) int)))
    (name ^ ": block counts") recounted (Interp.block_counts m);
  (* every static edge and call site, executed or not *)
  Array.iter
    (fun (f : P.func) ->
      Array.iter
        (fun (b : P.block) ->
          let check_edge dst =
            let expected =
              Option.value ~default:0
                (Hashtbl.find_opt r.r_edges (f.P.name, b.P.id, dst))
            in
            check_int
              (Printf.sprintf "%s: edge %s B%d->B%d" name f.P.name b.P.id dst)
              expected
              (Interp.edge_count m ~func:f.P.name ~src:b.P.id ~dst)
          in
          (match b.P.term with
           | Ipet_isa.Instr.Jump t -> check_edge t
           | Ipet_isa.Instr.Branch (_, t1, t2) ->
             check_edge t1;
             if t2 <> t1 then check_edge t2
           | Ipet_isa.Instr.Return _ -> ());
          List.iteri
            (fun occurrence _callee ->
              let expected =
                Option.value ~default:0
                  (Hashtbl.find_opt r.r_calls (f.P.name, b.P.id, occurrence))
              in
              check_int
                (Printf.sprintf "%s: call %s B%d #%d" name f.P.name b.P.id
                   occurrence)
                expected
                (Interp.call_count m ~caller:f.P.name ~block:b.P.id ~occurrence))
            (P.calls_of_block b))
        f.P.blocks)
    prog.P.funcs;
  (* context-qualified counters at every path the recount observed *)
  Hashtbl.iter
    (fun (path, f, b) v ->
      check_int
        (Printf.sprintf "%s: ctx count %s B%d (depth %d)" name f b
           (List.length path))
        v
        (Interp.ctx_block_count m ~path ~func:f ~block:b))
    r.r_ctx_counts;
  Hashtbl.iter
    (fun (path, f, src, dst) v ->
      check_int
        (Printf.sprintf "%s: ctx edge %s B%d->B%d" name f src dst)
        v
        (Interp.ctx_edge_count m ~path ~func:f ~src ~dst))
    r.r_ctx_edges;
  Hashtbl.iter
    (fun (path, f, b, occurrence) v ->
      check_int
        (Printf.sprintf "%s: ctx call %s B%d #%d" name f b occurrence)
        v
        (Interp.ctx_call_count m ~path ~caller:f ~block:b ~occurrence))
    r.r_ctx_calls;
  Hashtbl.iter
    (fun (path, f) v ->
      check_int (Printf.sprintf "%s: ctx entries %s" name f) v
        (Interp.ctx_entry_count m ~path ~func:f))
    r.r_ctx_entries

let differential_bench (bench : Bspec.t) =
  let compiled = Bspec.compile bench in
  let prog = compiled.Ipet_lang.Compile.prog in
  List.iter
    (fun (d : Bspec.dataset) ->
      (* run 1: hooked, recounting independently *)
      let m =
        Interp.create prog ~init:compiled.Ipet_lang.Compile.init_data
      in
      d.Bspec.setup m;
      Interp.flush_cache m;
      let r =
        recount_run prog bench.Bspec.root (fun on_event ->
            Interp.set_block_hook m on_event;
            ignore (Interp.call m bench.Bspec.root d.Bspec.args))
      in
      assert_recount_matches bench.Bspec.name m prog r;
      (* run 2: fresh machine, no hook — timing and cache statistics must
         not depend on observation *)
      let m2 =
        Interp.create prog ~init:compiled.Ipet_lang.Compile.init_data
      in
      d.Bspec.setup m2;
      Interp.flush_cache m2;
      ignore (Interp.call m2 bench.Bspec.root d.Bspec.args);
      check_int (bench.Bspec.name ^ ": cycles repeatable") (Interp.cycles m2)
        (Interp.cycles m);
      check_int (bench.Bspec.name ^ ": instructions repeatable")
        (Interp.instructions m2) (Interp.instructions m);
      check_int (bench.Bspec.name ^ ": cache hits repeatable")
        (Interp.cache_hits m2) (Interp.cache_hits m);
      check_int (bench.Bspec.name ^ ": cache misses repeatable")
        (Interp.cache_misses m2) (Interp.cache_misses m))
    bench.Bspec.worst_data

let differential_tests =
  List.map
    (fun (b : Bspec.t) ->
      (b.Bspec.name ^ " differential recount", `Slow,
       fun () -> differential_bench b))
    (Ipet_suite.Suite.all @ Ipet_suite.Suite.extended)

let suite = suite @ differential_tests
