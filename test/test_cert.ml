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

(* --- coverage ------------------------------------------------------------ *)

(* A certificate for [p] with the given duals and an all-zero witness:
   the digest, the dual signs, the implied bound and the witness all
   check, so any reason the checker gives is a coverage failure. *)
let zero_witness_cert p duals =
  let duals = Array.of_list (List.map Rat.of_int duals) in
  { Cert.direction = p.P.direction;
    bound = Rat.zero;
    dual_bound =
      List.fold_left2
        (fun acc (c : P.constr) y ->
          Rat.sub acc (Rat.mul y (L.constant c.P.expr)))
        Rat.zero p.P.constraints (Array.to_list duals);
    duals;
    witness = [];
    digest = Cert.digest_problem p }

let uncovered v ~lhs ~obj =
  Printf.sprintf "variable %s not covered: duals give %s against objective %s"
    v lhs obj

let check_reasons what expected p duals =
  Alcotest.(check (list string)) what expected
    (reasons (Checker.check p (zero_witness_cert p duals)))

let test_cover_unpriced_objective_var () =
  (* max x + y; only x's row is priced, so y's coefficient is uncovered *)
  let open L.Infix in
  check_reasons "y is reported"
    [ uncovered "y" ~lhs:"0" ~obj:"1" ]
    (P.make P.Maximize (v "x" + v "y")
       [ P.le (v "x") (int 4); P.le (v "y") (int 3) ])
    [ 1; 0 ]

let test_cover_zero_priced_var () =
  (* z is in zero-priced rows only, with either sign, and not in the
     objective: it can never fail *)
  let open L.Infix in
  check_reasons "nothing is reported" []
    (P.make P.Maximize (v "x")
       [ P.le (v "x") (int 4); P.le (v "x" - v "z") (int 1);
         P.ge (v "z") (int (-2)) ])
    [ 1; 0; 0 ]

let test_cover_priced_row_var () =
  (* w is only in the priced row x - w <= 4, where it gets -1 < 0 *)
  let open L.Infix in
  check_reasons "w is reported"
    [ uncovered "w" ~lhs:"-1" ~obj:"0" ]
    (P.make P.Maximize (v "x") [ P.le (v "x" - v "w") (int 4) ])
    [ 1 ]

let test_cover_name_order () =
  let open L.Infix in
  let obj = L.add (v "z" + v "a") (L.var ~coeff:(Rat.of_ints 3 2) "m") in
  check_reasons "a, b, m and z in name order"
    [ uncovered "a" ~lhs:"0" ~obj:"1";
      uncovered "b" ~lhs:"-1" ~obj:"0";
      uncovered "m" ~lhs:"0" ~obj:"3/2";
      uncovered "z" ~lhs:"0" ~obj:"1" ]
    (P.make P.Maximize obj [ P.le (v "q" - v "b") (int 0) ])
    [ 1 ]

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

(* --- certificates from the lifted root prices ------------------------------ *)

let emit ?root_duals p ~witness ~bound =
  match Certify.emit ?root_duals p ~witness ~bound with
  | Ok e -> e
  | Error m -> Alcotest.failf "certificate production failed: %s" m

(* without root prices, or when they do not prove the bound, the LP is
   re-solved cold; max x + y s.t. x + y <= 2 at the non-vertex (1, 1) *)
let test_non_vertex_witness () =
  let open L.Infix in
  let p = P.make P.Maximize (v "x" + v "y") [ P.le (v "x" + v "y") (int 2) ] in
  let witness = [ ("x", Rat.one); ("y", Rat.one) ] and bound = Rat.of_int 2 in
  let e = emit p ~witness ~bound in
  check_bool "fell back to the cold start" true (e.Certify.source = Certify.Cold);
  let verdict = Checker.check p e.Certify.cert in
  check_bool "valid" true (valid verdict);
  check_bool "gap closed" true (Checker.gap_closed verdict);
  let weak = emit ~root_duals:[| Rat.of_int 2 |] p ~witness ~bound in
  check_bool "prices proving 4 are not the certificate of 2" true
    (weak.Certify.source = Certify.Cold
     && Rat.equal weak.Certify.cert.Cert.dual_bound bound)

(* a witness outside the polytope: the checker rejects the witness, but
   the re-solve's duals still prove the LP optimum *)
let test_row_breaking_witness () =
  let bad = [ ("x", Rat.of_int 5); ("y", Rat.of_int 3) ] in (* x <= 4 *)
  let e = emit textbook_max ~witness:bad ~bound:(Rat.of_int 11) in
  check_bool "fell back to the cold start" true (e.Certify.source = Certify.Cold);
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

(* [p] solved by the presolving branch and bound, then certified twice:
   from the root prices it lifted, and by the cold re-solve *)
let both_routes p =
  match Ilp.solve p with
  | Ilp.Optimal { value; assignment; stats } ->
    ( emit ?root_duals:(Lazy.force stats.Ilp.root_duals) p ~witness:assignment
        ~bound:value,
      emit p ~witness:assignment ~bound:value,
      stats )
  | Ilp.Infeasible _ | Ilp.Unbounded _ -> Alcotest.fail "ILP not optimal"

(* the lifted certificate closes the gap without a solve and agrees with
   the re-solve's on everything but the duals *)
let lifts_like_resolve p =
  let lifted, cold, _ = both_routes p in
  let l = lifted.Certify.cert and c = cold.Certify.cert in
  lifted.Certify.source = Certify.Lifted
  && lifted.Certify.pivots = 0
  && Checker.gap_closed (Checker.check p l)
  && Rat.equal l.Cert.bound c.Cert.bound
  && Rat.equal l.Cert.dual_bound c.Cert.dual_bound
  && l.Cert.witness = c.Cert.witness
  && l.Cert.digest = c.Cert.digest

(* one hand-sized problem per reduction: presolve did [substituted] and
   [fixed] as stated, the certificate lifts, and its duals are [duals] *)
let check_lift what p ~substituted ~fixed ~duals =
  let lifted, _, stats = both_routes p in
  let pstats = Option.get stats.Ilp.presolve in
  check_int (what ^ ": substitutions") substituted
    pstats.Ipet_lp.Presolve.substituted;
  check_int (what ^ ": fixes") fixed pstats.Ipet_lp.Presolve.fixed;
  check_bool (what ^ ": lifted like the re-solve") true (lifts_like_resolve p);
  Alcotest.(check (list string))
    (what ^ ": lifted duals")
    duals
    (Array.to_list (Array.map Rat.to_string lifted.Certify.cert.Cert.duals))

(* max x + 2y + 3z s.t. x = y, y = z, x + y + z <= 9: presolve substitutes
   x := y, then y := z, and folds the cap, now 3z <= 9, into z <= 3. The
   reduced LP prices z <= 3 at 6; the cap gets 6/3, and each defining row
   the multiplier that zeroes its variable's reduced cost *)
let test_lift_substitution_chain () =
  let open L.Infix in
  check_lift "chain"
    (P.make P.Maximize
       (v "x" + (2 * v "y") + (3 * v "z"))
       [ P.eq ~origin:"link x" (v "x") (v "y");
         P.eq ~origin:"link y" (v "y") (v "z");
         P.le ~origin:"cap" (v "x" + v "y" + v "z") (int 9) ])
    ~substituted:2 ~fixed:0 ~duals:[ "-1"; "-1"; "2" ]

(* max x + y + 2z s.t. x + y <= 0, x + z <= 4, z <= 3: the first row
   forces x = y = 0. Its multiplier is the smallest that covers both
   pinned variables' reduced costs *)
let test_lift_forcing_row () =
  let open L.Infix in
  check_lift "forcing"
    (P.make P.Maximize
       (v "x" + v "y" + (2 * v "z"))
       [ P.le ~origin:"dead loop" (v "x" + v "y") (int 0);
         P.le ~origin:"cap a" (v "x" + v "z") (int 4);
         P.le ~origin:"cap z" (v "z") (int 3) ])
    ~substituted:0 ~fixed:2 ~duals:[ "1"; "0"; "2" ]

(* max 2x + y s.t. x <= 3, x >= 3, x + y <= 5: the two singleton rows
   pinch x to 3. x's reduced cost is positive, so the upper row takes it *)
let test_lift_pinched_bounds () =
  let open L.Infix in
  check_lift "pinched"
    (P.make P.Maximize
       ((2 * v "x") + v "y")
       [ P.le ~origin:"x cap" (v "x") (int 3);
         P.ge ~origin:"x floor" (v "x") (int 3);
         P.le ~origin:"sum cap" (v "x" + v "y") (int 5) ])
    ~substituted:0 ~fixed:1 ~duals:[ "1"; "0"; "1" ]

(* min 3a + b s.t. a + b >= 4, a >= 1: both rows are Ge rows, negated on
   intake; their multipliers are negated back *)
let test_lift_ge_rows () =
  let open L.Infix in
  check_lift "ge"
    (P.make P.Minimize
       ((3 * v "a") + v "b")
       [ P.ge ~origin:"demand" (v "a" + v "b") (int 4);
         P.ge ~origin:"a floor" (v "a") (int 1) ])
    ~substituted:0 ~fixed:0 ~duals:[ "1"; "2" ]

(* a duplicated equality row: presolve drops the copy, which gets 0 *)
let test_lift_duplicate_row () =
  let open L.Infix in
  check_lift "duplicate"
    (P.make P.Maximize
       (v "x" + (2 * v "y"))
       [ P.eq (v "x" + v "y") (int 3); P.eq (v "x" + v "y") (int 3);
         P.le (v "y") (int 2) ])
    ~substituted:1 ~fixed:0 ~duals:[ "1"; "0"; "1" ]

(* max x + y s.t. x + y <= 2, x - y = 2 at the degenerate vertex (2, 0):
   the equality defines x := y + 2, which is non-negative as it stands,
   so the first row becomes 2y <= 0 and pinches y to 0. y's reduced cost
   2 goes to that row, halved; x's is then 0, so its defining row takes
   none *)
let test_lift_degenerate_vertex () =
  let open L.Infix in
  check_lift "degenerate"
    (P.make P.Maximize (v "x" + v "y")
       [ P.le (v "x" + v "y") (int 2); P.eq (v "x" - v "y") (int 2) ])
    ~substituted:1 ~fixed:1 ~duals:[ "1"; "0" ]

(* piksrt as [bench export] writes it (loop bounds only) plus [constr
   piksrt 2 x5 <= 161]: presolve rounds the row to x5 <= 80 and the WCET's
   root prices lean on it, so the lift gives up. The cold re-solve proves
   the LP optimum 11719/2 and keeps the gap 39/2 to the WCET 5840; the
   verdict names that proved bound *)
let test_rounded_bound_falls_back () =
  let b = Ipet_suite.Suite.find "piksrt" in
  let spec =
    A.spec ~loop_bounds:b.Bspec.loop_bounds
      ~functional:
        [ Ipet.Constraint_parser.parse_constraint ~func:"piksrt" "2 x5 <= 161" ]
      ~root:b.Bspec.root (Bspec.compile b).Ipet_lang.Compile.prog
  in
  let r = A.analyze ~certify:true spec in
  let c = Option.get r.A.wcet_cert in
  check_int "WCET" 5840 r.A.wcet.A.cycles;
  check_bool "re-solved cold" true (c.A.emit_source = Certify.Cold);
  check_string "verdict" "valid, gap 39/2; proved bound 11719/2"
    (Format.asprintf "%a" (Checker.pp_verdict c.A.cert) c.A.verdict);
  check_bool "the BCET still lifts" true
    ((Option.get r.A.bcet_cert).A.emit_source = Certify.Lifted)

(* every ILP of a generated program on both machines: the certificate
   from the lifted root prices checks with the gap closed and agrees with
   the cold re-solve on everything but the duals *)
let gen_lifted ~name ~count case_of_seed =
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
              | Ilp.Optimal _ -> lifts_like_resolve p)
            (A.wcet_problems spec @ A.bcet_problems spec))
        Ipet_machine.Machine.[ e32; m7 ])

let prop_gen_lifted =
  gen_lifted ~name:"generated programs certify from the lifted root prices"
    ~count:25 Ipet_fuzz.Gen.case

(* gen-certify's size band, where presolve does most of the work *)
let prop_sized_lifted =
  gen_lifted
    ~name:"sized generated programs certify from the lifted root prices"
    ~count:10 (Ipet_fuzz.Gen.case_sized ~stmt_budget:40)

(* --- one view per constraint set ---------------------------------------- *)

let verdict_text = function
  | Checker.Valid { gap } -> "valid, gap " ^ Rat.to_string gap
  | Checker.Invalid rs -> "invalid: " ^ String.concat " | " rs

(* [cert] with one part changed: a nonzero dual's sign, a witness entry
   (+1), the bound (+1), the dual bound (+1) or one digest byte; [None]
   when the certificate has no such part to change *)
let mutations ~pick (c : Cert.t) =
  let nth_nonzero =
    List.filter (fun i -> not (Rat.is_zero c.Cert.duals.(i)))
      (List.init (Array.length c.Cert.duals) Fun.id)
  in
  let flipped =
    match nth_nonzero with
    | [] -> None
    | l ->
      let k = List.nth l (pick mod List.length l) in
      let d = Array.copy c.Cert.duals in
      d.(k) <- Rat.neg d.(k);
      Some { c with Cert.duals = d }
  in
  let bumped =
    match c.Cert.witness with
    | [] -> None
    | w ->
      let k = pick mod List.length w in
      Some
        { c with
          Cert.witness =
            List.mapi
              (fun i (v, x) -> if i = k then (v, Rat.add x Rat.one) else (v, x))
              w }
  in
  let digest =
    let b = Bytes.of_string c.Cert.digest in
    let k = pick mod Bytes.length b in
    Bytes.set b k (if Bytes.get b k = '0' then '1' else '0');
    { c with Cert.digest = Bytes.to_string b }
  in
  List.filter_map Fun.id
    [ flipped; bumped;
      Some { c with Cert.bound = Rat.add c.Cert.bound Rat.one };
      Some { c with Cert.dual_bound = Rat.add c.Cert.dual_bound Rat.one };
      Some digest ]

(* A view that has already served both directions' valid certificates
   gives every mutated certificate, and every certificate checked against
   the other objective, exactly the verdict a fresh [Checker.check] on a
   freshly built problem gives: the memo never serves a stale digest. The
   certificates come from a solved system, whose sets' own views then
   judge the mutations as [Analysis.check_stored] *)
let prop_view_isolation =
  QCheck.Test.make ~name:"a shared view checks like a fresh problem" ~count:12
    QCheck.(pair (int_bound 100_000) (int_bound 1000))
    (fun (seed, pick) ->
      let case = Ipet_fuzz.Gen.case_sized ~stmt_budget:40 seed in
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
          let insts, system = A.program_system spec in
          let cert direction =
            let _, _, c = A.solve_extreme ~certify:true spec insts system direction in
            (Option.get c).A.cert
          in
          let wcet = cert P.Maximize and bcet = cert P.Minimize in
          (* generated programs have no functionality constraints: one set *)
          let wp = List.hd (A.wcet_problems spec)
          and bp = List.hd (A.bcet_problems spec) in
          let view = Checker.view wp.P.constraints in
          (* a fresh problem: rebuilt from the spec, nothing shared *)
          let fresh (p : P.t) c =
            let q =
              List.hd
                (match p.P.direction with
                 | P.Maximize -> A.wcet_problems spec
                 | P.Minimize -> A.bcet_problems spec)
            in
            Checker.check { q with P.objective = p.P.objective } c
          in
          let same what v f =
            if verdict_text v <> verdict_text f then
              QCheck.Test.fail_reportf "%s: %s@.fresh: %s" what (verdict_text v)
                (verdict_text f)
          in
          let agree (p : P.t) c =
            let f = fresh p c in
            same "view" (Checker.check_view view p.P.direction p.P.objective c) f;
            f
          in
          (* the analysis's own view of the set, after both solves *)
          let stored (p : P.t) (c : Cert.t) =
            let f = fresh p c in
            match A.check_stored system p.P.direction c with
            | Some (_, v) -> same "stored" v f
            | None ->
              if c.Cert.digest = Checker.digest view p.P.direction p.P.objective
              then QCheck.Test.fail_report "stored: the set's digest is missed"
          in
          let valid_both () =
            Checker.gap_closed (agree wp wcet) && Checker.gap_closed (agree bp bcet)
          in
          valid_both ()
          && List.for_all
               (fun (p, c) ->
                 List.iter
                   (fun m -> ignore (agree p m); stored p m)
                   (c :: mutations ~pick c);
                 true)
               [ (wp, wcet); (bp, bcet) ]
          (* the other direction's objective, in either direction *)
          && List.for_all
               (fun (p, c) -> not (valid (agree p c)))
               [ (bp, wcet); (wp, bcet);
                 ({ wp with P.objective = bp.P.objective }, wcet);
                 ({ bp with P.objective = wp.P.objective }, bcet) ]
          && valid_both ())
        Ipet_machine.Machine.[ e32; m7 ])

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
            (Printf.sprintf "%s: %s root prices lifted" name what)
            true (c.A.emit_source = Certify.Lifted);
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

(* The 52 suite certificates (13 programs on e32 and m7, both extremes)
   are lifted, check with the gap closed, and encode byte for byte like
   the cold re-solve's but for their duals. *)
let suite_lifts_like_resolve () =
  let without_duals c = J.to_string (Cert.to_json { c with Cert.duals = [||] }) in
  List.iter
    (fun mach ->
      List.iter
        (fun (b : Bspec.t) ->
          let spec = Bspec.spec ~mach b in
          let r = A.analyze ~certify:true spec in
          List.iter
            (fun (what, (c : A.certificate option)) ->
              let where =
                Printf.sprintf "%s on %s, %s" b.Bspec.name
                  (Ipet_machine.Machine.id mach) what
              in
              let c = Option.get c in
              let p = problem_named spec c.A.cert in
              check_bool (where ^ ": lifted") true
                (c.A.emit_source = Certify.Lifted);
              check_bool (where ^ ": gap closed") true
                (Checker.gap_closed c.A.verdict);
              let cold =
                emit p ~witness:c.A.cert.Cert.witness ~bound:c.A.cert.Cert.bound
              in
              check_string (where ^ ": as the re-solve's")
                (without_duals cold.Certify.cert) (without_duals c.A.cert))
            [ ("wcet", r.A.wcet_cert); ("bcet", r.A.bcet_cert) ])
        Ipet_suite.Suite.all)
    Ipet_machine.Machine.[ e32; m7 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mutated_dual; prop_mutated_witness; prop_mutated_coefficient;
      prop_gen_lifted; prop_sized_lifted;
      prop_hostile_certificates; prop_view_isolation ]

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
    ("lift: a substitution chain", `Quick, test_lift_substitution_chain);
    ("lift: a forcing row", `Quick, test_lift_forcing_row);
    ("lift: pinched bounds", `Quick, test_lift_pinched_bounds);
    ("lift: Ge rows", `Quick, test_lift_ge_rows);
    ("lift: a duplicated row gets 0", `Quick, test_lift_duplicate_row);
    ("lift: a degenerate vertex", `Quick, test_lift_degenerate_vertex);
    ("a rounded bound falls back and keeps its gap", `Quick,
     test_rounded_bound_falls_back);
    ("every --cert-out certificate of the suite reads back", `Slow,
     test_cert_out_reads_back);
    ("all 52 suite certificates lift like the re-solve", `Slow,
     suite_lifts_like_resolve) ]
  @ props
  @ [ ("coverage: an unpriced objective variable", `Quick,
       test_cover_unpriced_objective_var);
      ("coverage: a zero-priced variable is never reported", `Quick,
       test_cover_zero_priced_var);
      ("coverage: a priced-row variable outside the objective", `Quick,
       test_cover_priced_row_var);
      ("coverage: uncovered variables in name order", `Quick,
       test_cover_name_order) ]
