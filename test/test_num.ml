(* Unit and property tests for the bignum / rational substrate. *)

module B = Ipet_num.Bigint
module Q = Ipet_num.Rat

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* --- Bigint unit tests ------------------------------------------------ *)

let test_of_to_int () =
  List.iter
    (fun i -> check_int (Printf.sprintf "roundtrip %d" i) i (B.to_int (B.of_int i)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31;
      max_int; min_int; min_int + 1; 123456789012345678 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> check_str ("roundtrip " ^ s) s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "99999999999999999999999999999999";
      "-123456789123456789123456789"; "1000000000000000000000000000000" ]

(* the decimal digits by one long division per digit: the slow but
   obviously right reference for [to_string]'s nine-digit chunks *)
let digits_by_tens x =
  let ten = B.of_int 10 in
  let rec go x acc =
    if B.is_zero x then acc
    else
      let q, r = B.divmod x ten in
      go q (string_of_int (B.to_int r) :: acc)
  in
  if B.is_zero x then "0"
  else (if B.sign x < 0 then "-" else "") ^ String.concat "" (go (B.abs x) [])

let test_long_string_roundtrip () =
  (* multi-thousand-digit numerals, as a hostile certificate carries *)
  let rng = Random.State.make [| 29 |] in
  List.iter
    (fun n ->
      let s =
        String.init n (fun i ->
            Char.chr
              (Char.code '0'
               + if i = 0 then 1 + Random.State.int rng 9
                 else Random.State.int rng 10))
      in
      List.iter
        (fun s ->
          let x = B.of_string s in
          check_str (Printf.sprintf "%d digits print back" n) s (B.to_string x);
          check_bool (Printf.sprintf "%d digits parse back" n) true
            (B.equal x (B.of_string (B.to_string x))))
        [ s; "-" ^ s ])
    [ 1; 8; 9; 10; 18; 19; 2000; 5000 ];
  (* around limb (2^30k) and chunk (10^9k) boundaries, against the
     per-digit reference *)
  let pow b k = List.fold_left (fun acc _ -> B.mul acc b) B.one (List.init k Fun.id) in
  List.iter
    (fun k ->
      List.iter
        (fun base ->
          let p = pow base k in
          List.iter
            (fun x ->
              check_str "matches the per-digit reference" (digits_by_tens x)
                (B.to_string x);
              check_bool "parses back" true
                (B.equal x (B.of_string (B.to_string x))))
            [ B.sub p B.one; p; B.add p B.one; B.neg (B.sub p B.one) ])
        [ B.of_int (1 lsl 30); B.of_int 1_000_000_000 ])
    [ 1; 2; 3; 7 ]

let test_big_arithmetic () =
  let a = B.of_string "123456789123456789123456789" in
  let b = B.of_string "987654321987654321" in
  check_str "mul" "121932631356500531469135800347203169112635269"
    (B.to_string (B.mul a b));
  check_str "add" "123456790111111111111111110" (B.to_string (B.add a b));
  let q, r = B.divmod a b in
  check_bool "reconstruct" true (B.equal a (B.add (B.mul q b) r));
  check_str "quot" "124999998" (B.to_string q)

let test_divmod_signs () =
  (* truncated division must match native semantics on small values *)
  List.iter
    (fun (a, b) ->
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      check_int (Printf.sprintf "%d quot %d" a b) (a / b) (B.to_int q);
      check_int (Printf.sprintf "%d rem %d" a b) (a mod b) (B.to_int r))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (6, 3); (-6, 3); (1, 7) ]

let test_div_by_zero () =
  Alcotest.check_raises "divmod 0" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd () =
  let g a b = B.to_int (B.gcd (B.of_int a) (B.of_int b)) in
  check_int "gcd 12 18" 6 (g 12 18);
  check_int "gcd -12 18" 6 (g (-12) 18);
  check_int "gcd 0 5" 5 (g 0 5);
  check_int "gcd 0 0" 0 (g 0 0);
  check_int "gcd 17 13" 1 (g 17 13)

let test_to_int_overflow () =
  let huge = B.of_string "99999999999999999999999999999999" in
  check_bool "overflow detected" true (B.to_int_opt huge = None);
  check_bool "max_int fits" true (B.to_int_opt (B.of_int max_int) = Some max_int)

(* --- Bigint properties ------------------------------------------------ *)

let small = QCheck.int_range (-1_000_000_000) 1_000_000_000

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add = int add" ~count:500
    (QCheck.pair small small)
    (fun (a, b) -> B.to_int (B.add (B.of_int a) (B.of_int b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul = int mul" ~count:500
    (QCheck.pair small small)
    (fun (a, b) -> B.to_int (B.mul (B.of_int a) (B.of_int b)) = a * b)

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"bigint divmod = int divmod" ~count:500
    (QCheck.pair small small)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      B.to_int q = a / b && B.to_int r = a mod b)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) small)
    (fun xs ->
      (* build a large number as a polynomial in 10^9 to exercise carries *)
      let big =
        List.fold_left
          (fun acc x -> B.add (B.mul acc (B.of_int 1_000_000_000)) (B.of_int x))
          B.zero xs
      in
      B.equal big (B.of_string (B.to_string big)))

let prop_mul_div_roundtrip =
  QCheck.Test.make ~name:"(a*b)/b = a for big operands" ~count:200
    (QCheck.pair (QCheck.pair small small) (QCheck.pair small small))
    (fun ((a1, a2), (b1, b2)) ->
      let big x y = B.add (B.mul (B.of_int x) (B.of_string "1000000000000000000000")) (B.of_int y) in
      let a = big a1 a2 and b = big b1 b2 in
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod (B.mul a b) b in
      B.equal q a && B.is_zero r)

let prop_compare_total =
  QCheck.Test.make ~name:"bigint compare matches int compare" ~count:500
    (QCheck.pair small small)
    (fun (a, b) -> compare a b = B.compare (B.of_int a) (B.of_int b))

(* --- Rat unit tests ---------------------------------------------------- *)

let q = Q.of_ints

let test_rat_normalization () =
  check_str "6/4 = 3/2" "3/2" (Q.to_string (q 6 4));
  check_str "-6/-4 = 3/2" "3/2" (Q.to_string (q (-6) (-4)));
  check_str "6/-4 = -3/2" "-3/2" (Q.to_string (q 6 (-4)));
  check_str "0/7 = 0" "0" (Q.to_string (q 0 7));
  check_str "8/4 = 2" "2" (Q.to_string (q 8 4))

let test_rat_arith () =
  check_bool "1/2 + 1/3 = 5/6" true Q.(equal (add (q 1 2) (q 1 3)) (q 5 6));
  check_bool "1/2 * 2/3 = 1/3" true Q.(equal (mul (q 1 2) (q 2 3)) (q 1 3));
  check_bool "(1/2) / (3/4) = 2/3" true Q.(equal (div (q 1 2) (q 3 4)) (q 2 3));
  check_bool "1/2 - 1/2 = 0" true (Q.is_zero (Q.sub (q 1 2) (q 1 2)))

let test_rat_floor_ceil () =
  let fl a b = B.to_int (Q.floor (q a b)) and ce a b = B.to_int (Q.ceil (q a b)) in
  check_int "floor 7/2" 3 (fl 7 2);
  check_int "ceil 7/2" 4 (ce 7 2);
  check_int "floor -7/2" (-4) (fl (-7) 2);
  check_int "ceil -7/2" (-3) (ce (-7) 2);
  check_int "floor 6/2" 3 (fl 6 2);
  check_int "ceil 6/2" 3 (ce 6 2)

let test_rat_of_string () =
  check_bool "3/4" true (Q.equal (Q.of_string "3/4") (q 3 4));
  check_bool "-3/4" true (Q.equal (Q.of_string "-3/4") (q (-3) 4));
  check_bool "2.5" true (Q.equal (Q.of_string "2.5") (q 5 2));
  check_bool "-0.25" true (Q.equal (Q.of_string "-0.25") (q (-1) 4));
  check_bool "42" true (Q.equal (Q.of_string "42") (Q.of_int 42))

let test_rat_compare () =
  check_bool "1/3 < 1/2" true (Q.compare (q 1 3) (q 1 2) < 0);
  check_bool "-1/2 < 1/3" true (Q.compare (q (-1) 2) (q 1 3) < 0);
  check_bool "min" true (Q.equal (Q.min (q 1 3) (q 1 2)) (q 1 3));
  check_bool "max" true (Q.equal (Q.max (q 1 3) (q 1 2)) (q 1 2))

let test_rat_int_edges () =
  let s = Q.to_string in
  check_str "of_int max_int" (string_of_int max_int) (s (Q.of_int max_int));
  check_str "of_int min_int" (string_of_int min_int) (s (Q.of_int min_int));
  check_int "to_int max_int" max_int (Q.to_int (Q.of_int max_int));
  check_int "to_int min_int" min_int (Q.to_int (Q.of_int min_int));
  check_str "neg min_int leaves int" "4611686018427387904"
    (s (Q.neg (Q.of_int min_int)));
  check_str "of_ints min_int (-1)" "4611686018427387904"
    (s (q min_int (-1)));
  check_str "of_ints min_int min_int" "1" (s (q min_int min_int));
  check_str "of_ints 1 min_int" "-1/4611686018427387904" (s (q 1 min_int));
  check_str "of_ints max_int min_int" "-4611686018427387903/4611686018427387904"
    (s (q max_int min_int))

let test_rat_boundary () =
  (* 2^30 is the last native magnitude; one past it lives in a Bigint *)
  let lim = 1 lsl 30 in
  List.iter
    (fun v ->
      let x = Q.of_int v in
      check_bool (Printf.sprintf "neg %d" v) true
        (Q.equal (Q.neg x) (Q.of_string (string_of_int (- v))));
      check_bool (Printf.sprintf "abs %d" v) true
        (Q.equal (Q.abs x) (Q.of_bigint (B.abs (B.of_int v))));
      check_bool (Printf.sprintf "neg neg %d" v) true
        (Q.equal (Q.neg (Q.neg x)) x))
    [ lim - 1; lim; lim + 1; - lim + 1; - lim; - lim - 1 ];
  (* a product that leaves the native range and a quotient that comes back *)
  let big = Q.mul (q lim 3) (q (lim + 3) 5) in
  check_str "promoted product" "1152921507828072448/15" (Q.to_string big);
  check_bool "demoted quotient equals the native value" true
    (Q.equal (Q.div big (q (lim + 3) 5)) (q lim 3));
  check_bool "demoted difference is zero" true
    (Q.is_zero (Q.sub big (Q.of_string "1152921507828072448/15")));
  check_bool "inverse of a promoted value stays exact" true
    (Q.equal (Q.inv (Q.inv big)) big)

let test_rat_floor_ceil_negative () =
  let fl a b = B.to_string (Q.floor (q a b))
  and ce a b = B.to_string (Q.ceil (q a b)) in
  check_str "floor -1/3" "-1" (fl (-1) 3);
  check_str "ceil -1/3" "0" (ce (-1) 3);
  check_str "floor -5/3" "-2" (fl (-5) 3);
  check_str "ceil -5/3" "-1" (ce (-5) 3);
  check_str "floor -(2^30+1)/2" "-536870913" (fl (-(1 lsl 30) - 1) 2);
  check_str "ceil -(2^30+1)/2" "-536870912" (ce (-(1 lsl 30) - 1) 2);
  check_str "floor -(2^40+1)/2" "-549755813889" (fl (-(1 lsl 40) - 1) 2);
  check_str "ceil -(2^40+1)/2" "-549755813888" (ce (-(1 lsl 40) - 1) 2);
  check_str "floor -6/3" "-2" (fl (-6) 3);
  check_str "ceil -6/3" "-2" (ce (-6) 3)

let test_rat_to_int_promoted () =
  (* integers past the native range but inside int still convert *)
  check_int "2^40" (1 lsl 40) (Q.to_int (Q.of_int (1 lsl 40)));
  check_int "2^30 * 4" (1 lsl 32)
    (Q.to_int (Q.mul (Q.of_int (1 lsl 30)) (Q.of_int 4)));
  check_int "2^50 / 2" (1 lsl 49) (Q.to_int (q (1 lsl 50) 2));
  check_int "(2^30+1)^2 / (2^30+1)" ((1 lsl 30) + 1)
    (Q.to_int (Q.div (Q.mul (Q.of_int ((1 lsl 30) + 1)) (Q.of_int ((1 lsl 30) + 1)))
                 (Q.of_int ((1 lsl 30) + 1))));
  Alcotest.check_raises "2^70 overflows" (Failure "Bigint.to_int: overflow")
    (fun () -> ignore (Q.to_int (Q.of_string "1180591620717411303424")));
  Alcotest.check_raises "a fraction is not an int"
    (Failure "Rat.to_int: not an integer")
    (fun () -> ignore (Q.to_int (q (1 lsl 40) 3)))

(* --- Rat properties ---------------------------------------------------- *)

let rat_gen =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-10000) 10000) (QCheck.int_range (-100) 100))

let prop_rat_add_assoc =
  QCheck.Test.make ~name:"rat add associative" ~count:300
    (QCheck.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)))

let prop_rat_mul_distrib =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:300
    (QCheck.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_rat_inverse =
  QCheck.Test.make ~name:"rat a * (1/a) = 1" ~count:300 rat_gen
    (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal (Q.mul a (Q.inv a)) Q.one)

let prop_rat_floor_le =
  QCheck.Test.make ~name:"floor <= x <= ceil, within 1" ~count:300 rat_gen
    (fun a ->
      let fl = Q.of_bigint (Q.floor a) and ce = Q.of_bigint (Q.ceil a) in
      Q.compare fl a <= 0 && Q.compare a ce <= 0
      && Q.compare (Q.sub ce fl) Q.one <= 0)

let prop_rat_string_roundtrip =
  QCheck.Test.make ~name:"rat string roundtrip" ~count:300 rat_gen
    (fun a -> Q.equal a (Q.of_string (Q.to_string a)))

(* --- Rat against a reference on normalized Bigint pairs ----------------- *)

(* Rat keeps small values as native ints and the rest as Bigints; this
   reference does everything on normalized Bigint pairs (d > 0, coprime),
   the representation Rat had before the native fast path. The checker's
   arithmetic is Rat's, so these properties are what guard the fast path. *)
module Ref = struct
  let make n d =
    if B.is_zero d then raise Division_by_zero;
    let n, d = if B.sign d < 0 then (B.neg n, B.neg d) else (n, d) in
    let g = B.gcd n d in
    (B.div n g, B.div d g)

  let add (an, ad) (bn, bd) = make (B.add (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)
  let sub a (bn, bd) = add a (B.neg bn, bd)
  let mul (an, ad) (bn, bd) = make (B.mul an bn) (B.mul ad bd)
  let inv (n, d) = make d n
  let div a b = mul a (inv b)
  let compare (an, ad) (bn, bd) = B.compare (B.mul an bd) (B.mul bn ad)

  let floor (n, d) =
    let q, r = B.divmod n d in
    if B.sign r < 0 then B.sub q B.one else q

  let ceil (n, d) =
    let q, r = B.divmod n d in
    if B.sign r > 0 then B.add q B.one else q

  let to_string (n, d) =
    if B.equal d B.one then B.to_string n
    else B.to_string n ^ "/" ^ B.to_string d
end

let lim = 1 lsl 30

(* integers at and around the edge of Rat's native range, the edges of
   int itself, and ordinary small values *)
let edge_int =
  QCheck.Gen.(
    frequency
      [ (3, oneofl
              [ 0; 1; -1; 2; -2; 3; 6; lim - 1; lim; lim + 1; - lim + 1; - lim;
                - lim - 1; 2 * lim; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 60;
                max_int; max_int - 1; min_int; min_int + 1 ]);
        (3, int_range (-1000) 1000);
        (2, map2 (fun b k -> b + k) (oneofl [ lim; - lim; lim / 2 ]) (int_range (-4) 4));
        (1, int) ])

(* Bigint numerators and denominators: mostly single ints, sometimes a
   product of two so operands also start out past the int range *)
let edge_big =
  QCheck.Gen.(
    frequency
      [ (5, map B.of_int edge_int);
        (1, map2 (fun a b -> B.mul (B.of_int a) (B.of_int b)) edge_int edge_int) ])

(* numerator and denominator both near one power of two from 2^29 to 2^32:
   when two such operands meet, their cross products sit right at the edge
   of int, which is where a too-wide native range would overflow *)
let near_power =
  QCheck.Gen.(
    map
      (fun (e, k1, k2, negative) ->
        let n = (1 lsl e) + k1 and d = (1 lsl e) + k2 in
        (B.of_int (if negative then - n else n), B.of_int d))
      (quad (int_range 29 32) (int_range (-3) 3) (int_range (-3) 3) bool))

let print_operand (n, d) = B.to_string n ^ "/" ^ B.to_string d

let operand =
  QCheck.make ~print:print_operand
    QCheck.Gen.(
      frequency
        [ (2, map2 (fun n d -> (n, if B.is_zero d then B.one else d))
                edge_big edge_big);
          (1, map (fun n -> (n, B.one)) edge_big);
          (1, near_power) ])

(* [q] holds exactly the normalized value [r], in canonical form: it equals
   the same value built along every other path into Rat *)
let agrees q ((n, d) as r) =
  B.equal (Q.num q) n && B.equal (Q.den q) d
  && Q.equal q (Q.make n d)
  && String.equal (Q.to_string q) (Ref.to_string r)
  && (match B.to_int_opt n, B.to_int_opt d with
      | Some n, Some d -> Q.equal q (Q.of_ints n d)
      | _ -> true)

let ref_or_zero_div f = try Some (f ()) with Division_by_zero -> None

let matches_reference ((an, ad), (bn, bd)) =
  let ra = Ref.make an ad and rb = Ref.make bn bd in
  let a = Q.make an ad and b = Q.make bn bd in
  let ref_neg = Ref.sub (B.zero, B.one) ra in
  let same_div q r =
    match ref_or_zero_div q, ref_or_zero_div r with
    | Some q, Some r -> agrees q r
    | None, None -> true
    | _ -> false
  in
  agrees a ra && agrees b rb
  && agrees (Q.add a b) (Ref.add ra rb)
  && agrees (Q.sub a b) (Ref.sub ra rb)
  && agrees (Q.mul a b) (Ref.mul ra rb)
  && same_div (fun () -> Q.div a b) (fun () -> Ref.div ra rb)
  && same_div (fun () -> Q.inv b) (fun () -> Ref.inv rb)
  && agrees (Q.neg a) ref_neg
  && agrees (Q.abs a) (if B.sign (fst ra) < 0 then ref_neg else ra)
  && Q.compare a b = Ref.compare ra rb
  && Q.equal a b = (Ref.compare ra rb = 0)
  && B.equal (Q.floor a) (Ref.floor ra)
  && B.equal (Q.ceil a) (Ref.ceil ra)
  && Q.equal (Q.of_string (Q.to_string a)) a

let prop_rat_differential =
  QCheck.Test.make ~name:"rat operations match the Bigint-pair reference"
    ~count:1000 (QCheck.pair operand operand) matches_reference

(* both operands near the same powers of two, so that pairs whose every
   cross product is close to 2^62 come up often *)
let prop_rat_differential_edge =
  QCheck.Test.make ~name:"rat matches the reference where int products overflow"
    ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> print_operand a ^ ", " ^ print_operand b)
       (QCheck.Gen.pair near_power near_power))
    matches_reference

let prop_rat_canonical =
  QCheck.Test.make ~name:"rat (a*b)/b = a and (a+b)-b = a, whatever a*b is"
    ~count:1000 (QCheck.pair operand operand)
    (fun ((an, ad), (bn, bd)) ->
      let a = Q.make an ad and b = Q.make bn bd in
      Q.equal (Q.sub (Q.add a b) b) a
      && (Q.is_zero b || Q.equal (Q.div (Q.mul a b) b) a))

(* The digit writer against the Bigint rendering of the same value:
   written after a prefix already in the buffer, it appends exactly the
   text [to_string] returns, which is the reference's text. *)
let prop_rat_add_to_buffer =
  let two_62 = B.mul (B.of_int (1 lsl 31)) (B.of_int (1 lsl 31)) in
  let fixed =
    List.map Q.of_int
      [ 0; lim - 1; lim + 1; - lim - 1; - lim + 1; max_int; min_int ]
    @ [ Q.of_bigint two_62; Q.of_bigint (B.neg two_62);
        Q.make two_62 (B.of_int 3); Q.make (B.of_int (-7)) two_62;
        Q.of_ints min_int 3; Q.of_ints 1 min_int ]
  in
  QCheck.Test.make ~name:"rat add_to_buffer = to_string = reference"
    ~count:1000
    (QCheck.make ~print:Q.to_string
       QCheck.Gen.(
         frequency
           [ (1, oneofl fixed);
             (2, map (fun (n, d) -> Q.make n d) (QCheck.gen operand));
             (2, map2 (fun n d -> Q.of_ints n (if d = 0 then 1 else d))
                   int int);
             (2, map2 (fun n d -> Q.of_ints n (if d = 0 then 1 else d))
                   (int_range (-1000) 1000) (int_range (-1000) 1000)) ]))
    (fun q ->
      let buf = Buffer.create 4 in
      Buffer.add_string buf "x*";
      Q.add_to_buffer buf q;
      Buffer.contents buf = "x*" ^ Q.to_string q
      && Q.to_string q = Ref.to_string (Q.num q, Q.den q))

let props = List.map QCheck_alcotest.to_alcotest
    [ prop_add_matches_int; prop_mul_matches_int; prop_divmod_matches_int;
      prop_string_roundtrip; prop_mul_div_roundtrip; prop_compare_total;
      prop_rat_add_assoc; prop_rat_mul_distrib; prop_rat_inverse;
      prop_rat_floor_le; prop_rat_string_roundtrip; prop_rat_differential;
      prop_rat_differential_edge; prop_rat_canonical; prop_rat_add_to_buffer ]

let suite =
  [ ("bigint int roundtrip", `Quick, test_of_to_int);
    ("bigint string roundtrip", `Quick, test_string_roundtrip);
    ("bigint big arithmetic", `Quick, test_big_arithmetic);
    ("bigint divmod signs", `Quick, test_divmod_signs);
    ("bigint division by zero", `Quick, test_div_by_zero);
    ("bigint gcd", `Quick, test_gcd);
    ("bigint to_int overflow", `Quick, test_to_int_overflow);
    ("rat normalization", `Quick, test_rat_normalization);
    ("rat arithmetic", `Quick, test_rat_arith);
    ("rat floor/ceil", `Quick, test_rat_floor_ceil);
    ("rat of_string", `Quick, test_rat_of_string);
    ("rat compare/min/max", `Quick, test_rat_compare);
    ("rat int edges", `Quick, test_rat_int_edges);
    ("rat native range boundary", `Quick, test_rat_boundary);
    ("rat floor/ceil of negative fractions", `Quick,
     test_rat_floor_ceil_negative);
    ("rat to_int of promoted integers", `Quick, test_rat_to_int_promoted);
    ("bigint long numerals round trip", `Quick, test_long_string_roundtrip) ]
  @ props
