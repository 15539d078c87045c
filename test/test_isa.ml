(* Unit tests for the ISA layer: instruction metadata, values, program
   validation, and the assembly printer's operand conventions. *)

module I = Ipet_isa.Instr
module P = Ipet_isa.Prog
module V = Ipet_isa.Value

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let addr ?(offset = 0) ?index base = { I.base = I.Abs base; offset; index }

(* --- defs / uses ------------------------------------------------------------ *)

let test_defs_uses () =
  let check instr defs uses =
    check_bool "defs" true (List.sort compare (I.defs instr) = List.sort compare defs);
    check_bool "uses" true (List.sort compare (I.uses instr) = List.sort compare uses)
  in
  check (I.Alu (I.Add, 1, I.Reg 2, I.Reg 3)) [ 1 ] [ 2; 3 ];
  check (I.Alu (I.Add, 1, I.Imm 5, I.Reg 3)) [ 1 ] [ 3 ];
  check (I.Mov (4, I.Fimm 2.5)) [ 4 ] [];
  check (I.Load (5, addr ~index:(I.Reg 6) 0)) [ 5 ] [ 6 ];
  check (I.Store (I.Reg 7, addr ~index:(I.Reg 8) 0)) [] [ 7; 8 ];
  check (I.Call (Some 9, "f", [ I.Reg 1; I.Imm 2; I.Reg 3 ])) [ 9 ] [ 1; 3 ];
  check (I.Call (None, "g", [])) [] [];
  check (I.Fcmp (I.Cle, 2, I.Reg 0, I.Reg 1)) [ 2 ] [ 0; 1 ]

let test_predicates () =
  check_bool "load" true (I.is_load (I.Load (0, addr 0)));
  check_bool "store" true (I.is_store (I.Store (I.Imm 1, addr 0)));
  check_bool "call" true (I.is_call (I.Call (None, "f", [])));
  check_bool "alu is not a load" false (I.is_load (I.Alu (I.Add, 0, I.Imm 1, I.Imm 2)))

(* --- printer conventions ---------------------------------------------------- *)

let render instr = Format.asprintf "%a" I.pp instr

let test_printing () =
  check_str "alu" "add r1, r2, #3" (render (I.Alu (I.Add, 1, I.Reg 2, I.Imm 3)));
  check_str "cmp" "cmp.lt r1, r2, r3" (render (I.Icmp (I.Clt, 1, I.Reg 2, I.Reg 3)));
  check_str "load abs" "ld r1, [5+r2]"
    (render (I.Load (1, addr ~index:(I.Reg 2) 5)));
  check_str "store frame" "st r3, [fp+2]"
    (render (I.Store (I.Reg 3, { I.base = I.Frame_base; offset = 2; index = None })));
  check_str "call" "call r0, f(r1, #2)"
    (render (I.Call (Some 0, "f", [ I.Reg 1; I.Imm 2 ])));
  (* float immediates always carry a decimal marker (parser relies on it) *)
  check_str "whole float" "mov r0, #3." (render (I.Mov (0, I.Fimm 3.0)));
  check_str "terminator" "br r1 ? B2 : B3"
    (Format.asprintf "%a" I.pp_terminator (I.Branch (1, 2, 3)))

(* Every instruction and terminator form against its literal text: the
   listing is the only text form, and cache keys hash it, so any change
   here is a change of every key. *)
let test_printing_every_form () =
  let r = I.Reg 1 and k = I.Imm (-7) in
  let expect text instr = check_str text text (render instr) in
  List.iter
    (fun (op, name) ->
      expect (name ^ " r0, r1, #-7") (I.Alu (op, 0, r, k)))
    I.[ (Add, "add"); (Sub, "sub"); (Mul, "mul"); (Div, "div"); (Rem, "rem");
        (And, "and"); (Or, "or"); (Xor, "xor"); (Shl, "shl"); (Shr, "shr") ];
  List.iter
    (fun (op, name) ->
      expect (name ^ " r2, r1, #0.5") (I.Fpu (op, 2, r, I.Fimm 0.5)))
    I.[ (Fadd, "fadd"); (Fsub, "fsub"); (Fmul, "fmul"); (Fdiv, "fdiv") ];
  List.iter
    (fun (op, name) ->
      expect ("cmp." ^ name ^ " r3, r1, #-7") (I.Icmp (op, 3, r, k));
      expect ("fcmp." ^ name ^ " r3, #2., r1") (I.Fcmp (op, 3, I.Fimm 2.0, r)))
    I.[ (Ceq, "eq"); (Cne, "ne"); (Clt, "lt"); (Cle, "le"); (Cgt, "gt");
        (Cge, "ge") ];
  expect "mov r4, #12" (I.Mov (4, I.Imm 12));
  expect "itof r5, r1" (I.Itof (5, r));
  expect "ftoi r6, #1.25" (I.Ftoi (6, I.Fimm 1.25));
  let frame ?(offset = 0) ?index () = { I.base = I.Frame_base; offset; index } in
  expect "ld r1, [0]" (I.Load (1, addr 0));
  expect "ld r1, [40]" (I.Load (1, addr 40));
  expect "ld r1, [40+3]" (I.Load (1, addr ~offset:3 40));
  expect "ld r1, [40+3+r2]" (I.Load (1, addr ~offset:3 ~index:(I.Reg 2) 40));
  expect "ld r1, [40+#5]" (I.Load (1, addr ~index:(I.Imm 5) 40));
  expect "ld r1, [fp]" (I.Load (1, frame ()));
  expect "ld r1, [fp+2]" (I.Load (1, frame ~offset:2 ()));
  expect "ld r1, [fp+r0]" (I.Load (1, frame ~index:(I.Reg 0) ()));
  expect "ld r1, [fp+2+r0]" (I.Load (1, frame ~offset:2 ~index:(I.Reg 0) ()));
  expect "st #-7, [8]" (I.Store (k, addr 8));
  expect "st r1, [8+1+r3]" (I.Store (r, addr ~offset:1 ~index:(I.Reg 3) 8));
  expect "st r1, [fp]" (I.Store (r, frame ()));
  expect "st #1.5, [fp+4+r2]"
    (I.Store (I.Fimm 1.5, frame ~offset:4 ~index:(I.Reg 2) ()));
  expect "call f()" (I.Call (None, "f", []));
  expect "call f(r1)" (I.Call (None, "f", [ r ]));
  expect "call f(r1, #-7, #0.25)" (I.Call (None, "f", [ r; k; I.Fimm 0.25 ]));
  expect "call r9, g()" (I.Call (Some 9, "g", []));
  expect "call r9, g(#3)" (I.Call (Some 9, "g", [ I.Imm 3 ]));
  expect "call r9, g(r1, r2, r3)"
    (I.Call (Some 9, "g", [ r; I.Reg 2; I.Reg 3 ]));
  expect "mov r0, #3." (I.Mov (0, I.Fimm 3.0));
  expect "mov r0, #-2." (I.Mov (0, I.Fimm (-2.0)));
  expect "mov r0, #1e+20" (I.Mov (0, I.Fimm 1e20));
  expect "mov r0, #nan" (I.Mov (0, I.Fimm Float.nan));
  expect "mov r0, #inf" (I.Mov (0, I.Fimm Float.infinity));
  expect "mov r0, #-inf" (I.Mov (0, I.Fimm Float.neg_infinity));
  let term t = Format.asprintf "%a" I.pp_terminator t in
  check_str "jump" "jmp B4" (term (I.Jump 4));
  check_str "branch" "br r1 ? B2 : B3" (term (I.Branch (1, 2, 3)));
  check_str "return" "ret" (term (I.Return None));
  check_str "return a register" "ret r0" (term (I.Return (Some (I.Reg 0))));
  check_str "return an immediate" "ret #-1" (term (I.Return (Some (I.Imm (-1)))))

(* --- values ------------------------------------------------------------------ *)

let test_values () =
  check_int "as_int" 7 (V.as_int (V.Vint 7));
  check_bool "as_int on float raises" true
    (try ignore (V.as_int (V.Vfloat 1.0)); false with Invalid_argument _ -> true);
  check_bool "truthy int" true (V.truthy (V.Vint (-3)));
  check_bool "falsy zero" false (V.truthy (V.Vint 0));
  check_bool "truthy float" true (V.truthy (V.Vfloat 0.1));
  check_bool "cross-type not equal" false (V.equal (V.Vint 0) (V.Vfloat 0.0));
  check_bool "float equal" true (V.equal (V.Vfloat 2.5) (V.Vfloat 2.5))

(* --- program validation ------------------------------------------------------ *)

let block ?(id = 0) instrs term = { P.id; instrs = Array.of_list instrs; term; src_line = 0 }

let func ?(name = "f") blocks =
  { P.name; nparams = 0; frame_words = 0; blocks = Array.of_list blocks }

let prog ?(globals = []) ?(globals_words = 0) funcs =
  { P.funcs = Array.of_list funcs; globals; globals_words }

let test_validate_ok () =
  let p =
    prog [ func [ block [ I.Mov (0, I.Imm 1) ] (I.Return (Some (I.Reg 0))) ] ]
  in
  check_bool "valid" true (P.validate p = Ok ())

let test_validate_catches () =
  let bad_target = prog [ func [ block [] (I.Jump 3) ] ] in
  check_bool "branch target" true (Result.is_error (P.validate bad_target));
  let empty_func = prog [ func [] ] in
  check_bool "empty function" true (Result.is_error (P.validate empty_func));
  let bad_call =
    prog [ func [ block [ I.Call (None, "missing", []) ] (I.Return None) ] ]
  in
  check_bool "unknown callee" true (Result.is_error (P.validate bad_call));
  let bad_global =
    prog ~globals:[ { P.gname = "g"; addr = 5; size_words = 4 } ] ~globals_words:6
      [ func [ block [] (I.Return None) ] ]
  in
  check_bool "global out of segment" true (Result.is_error (P.validate bad_global))

let test_calls_of_block () =
  let b =
    block
      [ I.Mov (0, I.Imm 1);
        I.Call (None, "a", []);
        I.Alu (I.Add, 1, I.Reg 0, I.Imm 2);
        I.Call (Some 2, "b", [ I.Reg 1 ]) ]
      (I.Return None)
  in
  check_bool "in order" true (P.calls_of_block b = [ "a"; "b" ])

let suite =
  [ ("defs and uses", `Quick, test_defs_uses);
    ("instruction predicates", `Quick, test_predicates);
    ("printer conventions", `Quick, test_printing);
    ("machine words", `Quick, test_values);
    ("validate accepts good programs", `Quick, test_validate_ok);
    ("validate rejects bad programs", `Quick, test_validate_catches);
    ("calls of a block", `Quick, test_calls_of_block);
    ("printer: every instruction form", `Quick, test_printing_every_form) ]
