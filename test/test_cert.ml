(* Proof-carrying bounds: the trusted checker against hand-built LPs,
   QCheck mutation properties (a perturbed certificate is rejected),
   serialization round trips, and full-suite certificate validation. *)

open Ipet_num
module L = Ipet_lp.Linexpr
module P = Ipet_lp.Lp_problem
module Ilp = Ipet_lp.Ilp
module Cert = Ipet_cert.Certificate
module Checker = Ipet_cert.Checker
module Certify = Ipet_cert.Certify
module A = Ipet.Analysis
module Bspec = Ipet_suite.Bspec
module J = Ipet_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let valid = function Checker.Valid _ -> true | Checker.Invalid _ -> false

let reasons = function
  | Checker.Valid _ -> []
  | Checker.Invalid rs -> rs

let solve_and_certify problem =
  match Ilp.solve problem with
  | Ilp.Optimal { value; assignment; _ } ->
    (match Certify.certify problem ~witness:assignment ~bound:value with
     | Ok c -> c
     | Error m -> Alcotest.failf "certificate production failed: %s" m)
  | Ilp.Infeasible _ -> Alcotest.fail "unexpectedly infeasible"
  | Ilp.Unbounded _ -> Alcotest.fail "unexpectedly unbounded"

(* max x + 2y  s.t.  x <= 4, y <= 3, x + y <= 5: optimum 8 at (2, 3) *)
let textbook_max =
  let open L.Infix in
  P.make P.Maximize
    (v "x" + (2 * v "y"))
    [ P.le (v "x") (int 4) ~origin:"x cap";
      P.le (v "y") (int 3) ~origin:"y cap";
      P.le (v "x" + v "y") (int 5) ~origin:"sum cap" ]

let test_checker_accepts () =
  let c = solve_and_certify textbook_max in
  let verdict = Checker.check textbook_max c in
  check_bool "valid" true (valid verdict);
  check_bool "gap closed (LP optimum is integral)" true
    (Checker.gap_closed verdict);
  check_bool "bound is 8" true (Rat.equal c.Cert.bound (Rat.of_int 8));
  check_bool "dual bound matches" true
    (Rat.equal c.Cert.dual_bound (Rat.of_int 8));
  check_int "one dual per constraint" 3 (Array.length c.Cert.duals)

let test_checker_accepts_minimize () =
  let open L.Infix in
  (* min 3a + b  s.t.  a + b >= 4, a >= 1: optimum 6 at (1, 3) *)
  let p =
    P.make P.Minimize
      ((3 * v "a") + v "b")
      [ P.ge (v "a" + v "b") (int 4); P.ge (v "a") (int 1) ]
  in
  let c = solve_and_certify p in
  let verdict = Checker.check p c in
  check_bool "valid" true (valid verdict);
  check_bool "gap closed" true (Checker.gap_closed verdict);
  check_bool "bound is 6" true (Rat.equal c.Cert.bound (Rat.of_int 6))

let test_checker_rejects_tampering () =
  let c = solve_and_certify textbook_max in
  let rejected what c' =
    check_bool (what ^ " is rejected") false
      (valid (Checker.check textbook_max c'))
  in
  rejected "an inflated bound"
    { c with Cert.bound = Rat.add c.Cert.bound Rat.one };
  rejected "an inflated dual bound"
    { c with Cert.dual_bound = Rat.add c.Cert.dual_bound Rat.one };
  rejected "a perturbed dual"
    { c with
      Cert.duals =
        (let d = Array.copy c.Cert.duals in
         d.(0) <- Rat.add d.(0) Rat.one;
         d) };
  rejected "a truncated dual vector"
    { c with Cert.duals = Array.sub c.Cert.duals 0 2 };
  rejected "a perturbed witness count"
    { c with
      Cert.witness =
        List.map
          (fun (name, n) ->
            if name = "y" then (name, Rat.add n Rat.one) else (name, n))
          c.Cert.witness };
  rejected "a fractional witness"
    { c with
      Cert.witness =
        List.map (fun (n, x) -> (n, Rat.div x (Rat.of_int 2))) c.Cert.witness };
  rejected "the wrong problem digest" { c with Cert.digest = "deadbeef" };
  rejected "the wrong direction"
    { c with Cert.direction = P.Minimize };
  (* and a certificate for a different problem is refused outright *)
  let other =
    let open L.Infix in
    P.make P.Maximize (v "x") [ P.le (v "x") (int 7) ]
  in
  check_bool "certificate for another problem is rejected" false
    (valid (Checker.check other c));
  check_bool "rejections carry a reason" true
    (reasons (Checker.check other c) <> [])

(* --- the JSON codec ---------------------------------------------------- *)

let decode text = Result.bind (J.parse text) Cert.of_json
let encoding c = J.to_string (Cert.to_json c)

let test_roundtrip () =
  let c = solve_and_certify textbook_max in
  let text = encoding c in
  (match decode text with
   | Error m -> Alcotest.failf "round trip failed: %s" m
   | Ok c' ->
     check_string "serialization is stable" text (encoding c');
     check_bool "round-tripped certificate still checks" true
       (valid (Checker.check textbook_max c')));
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "of_json rejects %S" s)
        true
        (Result.is_error (decode s)))
    [ ""; "garbage"; "null"; "[]"; "{}"; text ^ "trailing" ]

(* Fields of the wrong type or value, and rationals that fault (a zero
   denominator), must come back as [Error], never as an exception: callers
   re-solve on [Error] and let anything else escape. *)
let test_parse_faults () =
  let fields =
    match Cert.to_json (solve_and_certify textbook_max) with
    | J.Obj fields -> fields
    | _ -> Alcotest.fail "a certificate encodes as an object"
  in
  let replace name v =
    J.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) fields)
  in
  List.iter
    (fun (what, j) ->
      check_bool
        (Printf.sprintf "of_json rejects %s" what)
        true
        (match Cert.of_json j with
         | Error _ -> true
         | Ok _ -> false
         | exception e ->
           Alcotest.failf "%s raised %s" what (Printexc.to_string e)))
    [ ("bound 1/0", replace "bound" (J.Str "1/0"));
      ("dual_bound 3/0", replace "dual_bound" (J.Str "3/0"));
      ("bound x", replace "bound" (J.Str "x"));
      ("an empty bound", replace "bound" (J.Str ""));
      ("a numeric bound", replace "bound" (J.Int 8));
      ("version 2", replace "version" (J.Int 2));
      ("direction up", replace "direction" (J.Str "up"));
      ("a witness list", replace "witness" (J.List []));
      ("a witness value x", replace "witness" (J.Obj [ ("x", J.Str "x") ]));
      ("a numeric dual", replace "duals" (J.List [ J.Int 1 ]));
      ("duals as an object", replace "duals" (J.Obj []));
      ("no digest", J.Obj (List.remove_assoc "digest" fields)) ]

let test_json_export () =
  let r = A.analyze ~certify:true (Bspec.spec (Ipet_suite.Suite.find "check_data")) in
  let c = (Option.get r.A.wcet_cert).A.cert in
  match J.parse (J.to_string (Ipet.Report.certificates_json r)) with
  | Error m -> Alcotest.failf "exported JSON does not parse: %s" m
  | Ok doc ->
    let side name = Option.bind (J.member name doc) (J.member "certificate") in
    let j = Option.get (side "wcet") in
    check_bool "direction" true (J.member "direction" j = Some (J.Str "max"));
    check_bool "bcet direction" true
      (Option.bind (side "bcet") (J.member "direction") = Some (J.Str "min"));
    check_bool "bound is a decimal string" true
      (J.member "bound" j = Some (J.Str (string_of_int r.A.wcet.A.cycles)));
    check_bool "digest round-trips" true
      (J.member "digest" j = Some (J.Str c.Cert.digest));
    check_bool "witness is an object" true
      (match J.member "witness" j with Some (J.Obj _) -> true | _ -> false)

(* the problem of [spec] a certificate's digest names *)
let problem_named spec (c : Cert.t) =
  List.find
    (fun p -> Cert.digest_problem p = c.Cert.digest)
    (A.wcet_problems spec @ A.bcet_problems spec)

(* Every [--cert-out] document of the exported suite (13 programs on e32
   and m7, both extremes: 52 certificates) reads back through [of_json] to
   the certificate the in-process analysis produces, and checks with the
   gap closed against the problem its digest names. *)
let test_cert_out_reads_back () =
  List.iter
    (fun (b : Bspec.t) ->
      let path, read = Test_obs.cli_fixture ~bench:b.Bspec.name () in
      let loop_bounds =
        (Ipet.Constraint_parser.parse_annotation_text (read "p.ann"))
          .Ipet.Constraint_parser.loop_bounds
      in
      let prog = (Bspec.compile b).Ipet_lang.Compile.prog in
      List.iter
        (fun mach ->
          let id = Ipet_machine.Machine.id mach in
          let where = Printf.sprintf "%s on %s" b.Bspec.name id in
          check_bool (where ^ ": analyze exits 0") true
            (Test_obs.run_analyze path ~stderr_to:(path "err")
               [ "--mach"; id; "--cert-out"; path "c.json" ]
             = Unix.WEXITED 0);
          let doc = Result.get_ok (J.parse (read "c.json")) in
          let spec = A.spec ~mach ~loop_bounds ~root:b.Bspec.root prog in
          let r = A.analyze ~certify:true spec in
          List.iter
            (fun (what, (produced : A.certificate option)) ->
              match
                Option.map Cert.of_json
                  (Option.bind (J.member what doc) (J.member "certificate"))
              with
              | Some (Ok c) ->
                check_string
                  (Printf.sprintf "%s: %s reads back as produced" where what)
                  (encoding (Option.get produced).A.cert) (encoding c);
                check_bool
                  (Printf.sprintf "%s: %s checks with the gap closed" where what)
                  true
                  (Checker.gap_closed (Checker.check (problem_named spec c) c))
              | _ -> Alcotest.failf "%s: %s does not read back" where what)
            [ ("wcet", r.A.wcet_cert); ("bcet", r.A.bcet_cert) ])
        Ipet_machine.Machine.[ e32; m7 ])
    Ipet_suite.Suite.all

(* Hostile certificate text: real suite certificates, damaged by
   truncation, a byte flip, a dropped key or a hostile rational. Decoding
   returns [Ok] or [Error] and never raises, and whatever decodes goes
   through the checker without raising (an exception fails the property). *)
let suite_certificates =
  lazy
    (List.concat_map
       (fun (name, mach) ->
         let spec = Bspec.spec ~mach (Ipet_suite.Suite.find name) in
         let r = A.analyze ~certify:true spec in
         List.filter_map
           (Option.map (fun (c : A.certificate) ->
                (problem_named spec c.A.cert, Cert.to_json c.A.cert)))
           [ r.A.wcet_cert; r.A.bcet_cert ])
       Ipet_machine.Machine.
         [ ("check_data", e32); ("piksrt", m7); ("line", e32) ])

(* [j] with its [target]-th string leaf replaced by [hostile], or with
   its [target]-th object field dropped, in document order; and the number
   of such positions *)
let edit ~drop ~target hostile j =
  let n = ref (-1) in
  let hit () = incr n; !n = target in
  let rec go = function
    | J.Str _ when (not drop) && hit () -> J.Str hostile
    | J.Obj fields ->
      J.Obj
        (List.filter_map
           (fun (k, v) -> if drop && hit () then None else Some (k, go v))
           fields)
    | J.List l -> J.List (List.map go l)
    | v -> v
  in
  let j' = go j in
  (j', !n + 1)

(* truncation, a byte flip, a dropped key, or a rational replaced by a
   zero denominator, junk, nothing or a 40-digit numeral *)
let damage j kind pos byte =
  let text = J.to_string j in
  match kind with
  | 0 -> String.sub text 0 (pos mod String.length text)
  | 1 ->
    let b = Bytes.of_string text in
    Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
    Bytes.to_string b
  | _ ->
    let drop = kind = 2 in
    let hostile =
      List.nth
        [ "1/0"; "x"; ""; "1234567890123456789012345678901234567890" ]
        (byte mod 4)
    in
    let _, n = edit ~drop ~target:(-1) hostile j in
    J.to_string (fst (edit ~drop ~target:(pos mod n) hostile j))

let prop_hostile_certificates =
  QCheck.Test.make ~name:"hostile certificate text is Ok or Error, never raises"
    ~count:300
    QCheck.(
      quad (int_bound 1000) (int_bound 3) (int_bound 100_000) (int_bound 255))
    (fun (which, kind, pos, byte) ->
      let certs = Lazy.force suite_certificates in
      let p, j = List.nth certs (which mod List.length certs) in
      match decode (damage j kind pos byte) with
      | Error _ -> true
      | Ok c ->
        ignore (Checker.check p c);
        true)

(* --- mutation properties -------------------------------------------------- *)

(* a random box-plus-knapsack family: max Σ c_i x_i  s.t.  x_i <= b_i,
   Σ x_i <= t, with c_i, b_i >= 1 — always feasible and bounded, every
   constraint with nonzero right-hand side, every variable in the
   objective, so any single perturbation below provably breaks a checker
   equation (witness objective, implied dual bound, or the digest) *)
let random_problem (nvars, caps, costs, slack) =
  let n = 1 + (nvars mod 5) in
  let cap i = 1 + (List.nth caps (i mod List.length caps) mod 9) in
  let cost i = 1 + (List.nth costs (i mod List.length costs) mod 9) in
  let idxs = List.init n Fun.id in
  let budget =
    1 + (slack mod List.fold_left (fun acc i -> acc + cap i) 0 idxs)
  in
  let x i = L.var (Printf.sprintf "x%d" i) in
  let open L.Infix in
  let total = List.fold_left (fun acc i -> acc + x i) L.zero idxs in
  P.make P.Maximize
    (List.fold_left (fun acc i -> acc + (cost i * x i)) L.zero idxs)
    (P.le total (int budget)
     :: List.map (fun i -> P.le (x i) (int (cap i))) idxs)

let family =
  QCheck.(
    quad (int_bound 1000)
      (list_of_size (Gen.return 5) (int_bound 1000))
      (list_of_size (Gen.return 5) (int_bound 1000))
      (int_bound 1000))

let prop_valid_then_mutated_rejected which mutate =
  QCheck.Test.make ~name:(Printf.sprintf "a perturbed %s is rejected" which)
    ~count:60
    QCheck.(pair family (pair (int_bound 100) (int_range 1 3)))
    (fun (seedcase, (pick, delta)) ->
      let p = random_problem seedcase in
      let c = solve_and_certify p in
      valid (Checker.check p c)
      && not (valid (mutate ~pick ~delta p c)))

let prop_mutated_dual =
  prop_valid_then_mutated_rejected "dual multiplier" (fun ~pick ~delta p c ->
    let d = Array.copy c.Cert.duals in
    let k = pick mod Array.length d in
    d.(k) <- Rat.add d.(k) (Rat.of_int delta);
    Checker.check p { c with Cert.duals = d })

let prop_mutated_witness =
  prop_valid_then_mutated_rejected "witness count" (fun ~pick ~delta p c ->
    (* the optimum saturates at least one variable above zero, so the
       witness is never empty; bump one entry *)
    let w = c.Cert.witness in
    let k = pick mod max 1 (List.length w) in
    Checker.check p
      { c with
        Cert.witness =
          List.mapi
            (fun i (name, n) ->
              if i = k then (name, Rat.add n (Rat.of_int delta))
              else (name, n))
            w })

let prop_mutated_coefficient =
  prop_valid_then_mutated_rejected "constraint coefficient"
    (fun ~pick ~delta p c ->
      (* perturbing the problem itself must flip the digest check: the
         certificate no longer speaks about the problem being checked *)
      let n = List.length p.P.constraints in
      let k = pick mod n in
      let open L.Infix in
      let constraints =
        List.mapi
          (fun i (cs : P.constr) ->
            if i = k then
              { cs with P.expr = cs.P.expr + int delta }
            else cs)
          p.P.constraints
      in
      Checker.check { p with P.constraints } c)

(* --- the solve started at the witness ------------------------------------ *)

module Revised = Ipet_lp.Revised
module Sparse = Ipet_lp.Sparse

let emit p ~witness ~bound =
  match Certify.emit p ~witness ~bound with
  | Ok e -> e
  | Error m -> Alcotest.failf "certificate production failed: %s" m

(* max x + y  s.t.  x + y <= 2: (1, 1) is optimal but not a vertex — its
   two positive columns share the one row — so the solve cannot start
   there and falls back to the cold start *)
let test_non_vertex_witness () =
  let open L.Infix in
  let p = P.make P.Maximize (v "x" + v "y") [ P.le (v "x" + v "y") (int 2) ] in
  let e =
    emit p ~witness:[ ("x", Rat.one); ("y", Rat.one) ] ~bound:(Rat.of_int 2)
  in
  check_bool "fell back to the cold start" false e.Certify.from_witness;
  let verdict = Checker.check p e.Certify.cert in
  check_bool "valid" true (valid verdict);
  check_bool "gap closed" true (Checker.gap_closed verdict)

(* a witness outside the polytope falls back too; the checker then rejects
   the witness, but the duals still prove the LP optimum *)
let test_row_breaking_witness () =
  let bad = [ ("x", Rat.of_int 5); ("y", Rat.of_int 3) ] in (* x <= 4 *)
  let e = emit textbook_max ~witness:bad ~bound:(Rat.of_int 11) in
  check_bool "fell back to the cold start" false e.Certify.from_witness;
  check_bool "the broken witness is rejected" false
    (valid (Checker.check textbook_max e.Certify.cert));
  let optimal = [ ("x", Rat.of_int 2); ("y", Rat.of_int 3) ] in
  let verdict =
    Checker.check textbook_max
      { e.Certify.cert with
        Cert.witness = Cert.witness_of_assignment optimal;
        bound = Rat.of_int 8 }
  in
  check_bool "its duals prove the optimum" true (Checker.gap_closed verdict)

(* the LP optimum of [p] from the cold primal simplex, in [p]'s direction *)
let cold_lp_optimum (p : P.t) =
  let maximize = p.P.direction = P.Maximize in
  let inst = Sparse.build ~vars:(P.variables p) p in
  let cost =
    Array.map
      (fun x ->
        let c = L.coeff p.P.objective x in
        if maximize then c else Rat.neg c)
      inst.Sparse.vars
  in
  match (Revised.solve_primal inst ~cost).Revised.verdict with
  | Revised.Optimal s ->
    Rat.add (L.constant p.P.objective)
      (if maximize then s.Revised.value else Rat.neg s.Revised.value)
  | Revised.Infeasible | Revised.Unbounded ->
    Alcotest.fail "cold LP relaxation not optimal"

(* the witness basis is completed by zero-valued columns *)

(* max x + y  s.t.  x + y <= 2, x - y = 2 at (2, 0): a degenerate vertex.
   Its one positive column, x, covers the first row; the zero-valued y
   covers the equality, so the basis is complete, and optimal, without a
   pivot *)
let test_degenerate_witness () =
  let open L.Infix in
  let p =
    P.make P.Maximize (v "x" + v "y")
      [ P.le (v "x" + v "y") (int 2); P.eq (v "x" - v "y") (int 2) ]
  in
  let e = emit p ~witness:[ ("x", Rat.of_int 2) ] ~bound:(Rat.of_int 2) in
  check_bool "solved from the witness" true e.Certify.from_witness;
  check_int "no pivot" 0 e.Certify.pivots;
  check_bool "gap closed" true
    (Checker.gap_closed (Checker.check p e.Certify.cert))

(* a duplicated equality row: no real column covers the copy, so its
   artificial stays basic at zero and the solve still starts at the
   witness *)
let test_duplicate_row_witness () =
  let open L.Infix in
  let p =
    P.make P.Maximize (v "x" + (2 * v "y"))
      [ P.eq (v "x" + v "y") (int 3); P.eq (v "x" + v "y") (int 3);
        P.le (v "y") (int 2) ]
  in
  let e =
    emit p ~witness:[ ("x", Rat.one); ("y", Rat.of_int 2) ]
      ~bound:(Rat.of_int 5)
  in
  check_bool "solved from the witness" true e.Certify.from_witness;
  check_bool "gap closed" true
    (Checker.gap_closed (Checker.check p e.Certify.cert))

(* every ILP of a generated program on both machines: the certificate
   started at the solver's witness checks with the gap closed, never falls
   back, and agrees with the cold solve on everything but the duals *)
let gen_witness_start ~name ~count case_of_seed =
  QCheck.Test.make ~name ~count QCheck.(int_bound 100_000)
    (fun seed ->
      let case = case_of_seed seed in
      let source = Ipet_fuzz.Render.program case.Ipet_fuzz.Gen.prog in
      let ast, _ = Ipet_lang.Frontend.parse_and_check source in
      let prog =
        (Ipet_lang.Frontend.compile_string_exn source).Ipet_lang.Compile.prog
      in
      List.for_all
        (fun mach ->
          let spec =
            A.spec ~mach ~cache:case.Ipet_fuzz.Gen.cache
              ~loop_bounds:(Ipet.Autobound.infer ast) ~root:"main" prog
          in
          List.for_all
            (fun p ->
              match Ilp.solve p with
              | Ilp.Infeasible _ -> true
              | Ilp.Unbounded _ -> Alcotest.fail "generated ILP unbounded"
              | Ilp.Optimal { value; assignment; _ } ->
                let e = emit p ~witness:assignment ~bound:value in
                let c = e.Certify.cert in
                e.Certify.from_witness
                && Checker.gap_closed (Checker.check p c)
                && Rat.equal c.Cert.bound value
                && Rat.equal c.Cert.dual_bound (cold_lp_optimum p)
                && c.Cert.witness = Cert.witness_of_assignment assignment
                && c.Cert.digest = Cert.digest_problem p)
            (A.wcet_problems spec @ A.bcet_problems spec))
        Ipet_machine.Machine.[ e32; m7 ])

let prop_gen_witness_start =
  gen_witness_start ~name:"generated programs certify from the witness"
    ~count:25 Ipet_fuzz.Gen.case

(* gen-certify's size band, where the witness basis is large *)
let prop_sized_witness_start =
  gen_witness_start
    ~name:"sized generated programs certify from the witness" ~count:10
    (Ipet_fuzz.Gen.case_sized ~stmt_budget:40)

(* --- the whole suite, certified ------------------------------------------- *)

let certified_suite () =
  List.iter
    (fun (b : Bspec.t) ->
      let name = b.Bspec.name in
      let r = A.analyze ~certify:true (Bspec.spec b) in
      let side what cycles = function
        | None -> Alcotest.failf "%s: no %s certificate" name what
        | Some (c : A.certificate) ->
          check_bool
            (Printf.sprintf "%s: %s solve started at the witness" name what)
            true c.A.emit_from_witness;
          check_bool
            (Printf.sprintf "%s: %s certificate valid" name what)
            true (valid c.A.verdict);
          check_bool
            (Printf.sprintf "%s: %s gap closed" name what)
            true
            (Checker.gap_closed c.A.verdict);
          check_bool
            (Printf.sprintf "%s: %s certificate certifies the bound" name what)
            true
            (Rat.equal c.A.cert.Cert.bound (Rat.of_int cycles))
      in
      side "wcet" r.A.wcet.A.cycles r.A.wcet_cert;
      side "bcet" r.A.bcet.A.cycles r.A.bcet_cert)
    Ipet_suite.Suite.all

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mutated_dual; prop_mutated_witness; prop_mutated_coefficient;
      prop_gen_witness_start; prop_sized_witness_start;
      prop_hostile_certificates ]

let suite =
  [ ("checker accepts a maximization certificate", `Quick,
     test_checker_accepts);
    ("checker accepts a minimization certificate", `Quick,
     test_checker_accepts_minimize);
    ("checker rejects every tampering", `Quick, test_checker_rejects_tampering);
    ("serialization round trip", `Quick, test_roundtrip);
    ("JSON export", `Quick, test_json_export);
    ("all 13 benchmarks certify at --jobs 1", `Slow, certified_suite);
    ("malformed fields are parse errors", `Quick, test_parse_faults);
    ("a non-vertex witness falls back to the cold start", `Quick,
     test_non_vertex_witness);
    ("a row-breaking witness falls back to the cold start", `Quick,
     test_row_breaking_witness);
    ("a degenerate witness completes its basis with zero columns", `Quick,
     test_degenerate_witness);
    ("a duplicated row keeps its artificial at zero", `Quick,
     test_duplicate_row_witness);
    ("every --cert-out certificate of the suite reads back", `Slow,
     test_cert_out_reads_back) ]
  @ props
