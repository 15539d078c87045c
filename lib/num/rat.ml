module B = Bigint

(* A normalized rational n/d (d > 0, gcd (n, d) = 1) in one of two
   representations, chosen by the value alone:
   - [I]: n and d as native ints, exactly when |n| <= lim and d <= lim;
   - [Z]: n and d as Bigints, for every value outside that range.
   Equal values therefore have equal representations, so [equal] compares
   fields and printing never depends on how a value was computed.
   lim = 2^30: a cross product of two [I] operands is at most 2^60 and a
   sum of two such products at most 2^61, so native arithmetic on [I]
   operands cannot overflow a 63-bit int. *)
type t =
  | I of { n : int; d : int }
  | Z of { n : B.t; d : B.t }

let lim = 1 lsl 30
let in_range n d = n >= - lim && n <= lim && d <= lim

(* normalized native n/d with d > 0 *)
let of_norm n d =
  if in_range n d then I { n; d } else Z { n = B.of_int n; d = B.of_int d }

(* gcd of a >= 0 and b >= 0 *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* native n/d with d > 0 and n <> min_int *)
let reduce n d =
  if d = 1 then of_norm n 1
  else begin
    let g = gcd (Stdlib.abs n) d in
    if g = 1 then of_norm n d else of_norm (n / g) (d / g)
  end

(* normalized Bigint n/d with d > 0, demoted when it fits [I] *)
let of_big n d =
  match B.to_int_opt n, B.to_int_opt d with
  | Some n, Some d when in_range n d -> I { n; d }
  | _ -> Z { n; d }

let make num den =
  if B.is_zero den then raise Division_by_zero;
  let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
  let g = B.gcd num den in
  if B.equal g B.one then of_big num den else of_big (B.div num g) (B.div den g)

let zero = I { n = 0; d = 1 }
let one = I { n = 1; d = 1 }
let minus_one = I { n = -1; d = 1 }

let of_int i = of_norm i 1

let of_ints num den =
  if den = 0 then raise Division_by_zero;
  if num = min_int || den = min_int then make (B.of_int num) (B.of_int den)
  else if den < 0 then reduce (- num) (- den)
  else reduce num den

let of_bigint b = of_big b B.one

let num = function I { n; _ } -> B.of_int n | Z { n; _ } -> n
let den = function I { d; _ } -> B.of_int d | Z { d; _ } -> d

let neg = function
  | I { n; d } -> I { n = - n; d }
  | Z { n; d } -> Z { n = B.neg n; d }

let abs = function
  | I { n; d } as v -> if n < 0 then I { n = - n; d } else v
  | Z { n; d } as v -> if B.sign n < 0 then Z { n = B.neg n; d } else v

let sign = function I { n; _ } -> Stdlib.compare n 0 | Z { n; _ } -> B.sign n
let is_zero = function I { n; _ } -> n = 0 | Z _ -> false

(* The slow paths below widen both operands to Bigint and renormalize. *)

let add a b =
  match a, b with
  | I a, I b ->
    if a.d = 1 && b.d = 1 then of_norm (a.n + b.n) 1
    else reduce ((a.n * b.d) + (b.n * a.d)) (a.d * b.d)
  | _ ->
    make (B.add (B.mul (num a) (den b)) (B.mul (num b) (den a)))
      (B.mul (den a) (den b))

let sub a b =
  match a, b with
  | I a, I b ->
    if a.d = 1 && b.d = 1 then of_norm (a.n - b.n) 1
    else reduce ((a.n * b.d) - (b.n * a.d)) (a.d * b.d)
  | _ -> add a (neg b)

let mul a b =
  match a, b with
  | I a, I b ->
    if a.d = 1 && b.d = 1 then of_norm (a.n * b.n) 1
    else reduce (a.n * b.n) (a.d * b.d)
  | _ -> make (B.mul (num a) (num b)) (B.mul (den a) (den b))

(* the range is symmetric in n and d, so inversion keeps the representation *)
let inv = function
  | I { n; d } ->
    if n = 0 then raise Division_by_zero
    else if n > 0 then I { n = d; d = n }
    else I { n = - d; d = - n }
  | Z { n; d } ->
    if B.sign n > 0 then Z { n = d; d = n } else Z { n = B.neg d; d = B.neg n }

let div a b =
  match a, b with
  | I a, I b ->
    if b.n = 0 then raise Division_by_zero;
    let n = a.n * b.d and d = a.d * b.n in
    if d < 0 then reduce (- n) (- d) else reduce n d
  | _ -> mul a (inv b)

let compare a b =
  match a, b with
  | I a, I b ->
    if a.d = b.d then Int.compare a.n b.n
    else Int.compare (a.n * b.d) (b.n * a.d)
  | _ -> B.compare (B.mul (num a) (den b)) (B.mul (num b) (den a))

let equal a b =
  match a, b with
  | I a, I b -> a.n = b.n && a.d = b.d
  | Z a, Z b -> B.equal a.n b.n && B.equal a.d b.d
  | _ -> false

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_integer = function I { d; _ } -> d = 1 | Z { d; _ } -> B.equal d B.one

let floor = function
  | I { n; d } ->
    let q = n / d in
    B.of_int (if n < 0 && q * d <> n then q - 1 else q)
  | Z { n; d } ->
    let q, r = B.divmod n d in
    if B.sign r < 0 then B.sub q B.one else q

let ceil = function
  | I { n; d } ->
    let q = n / d in
    B.of_int (if n > 0 && q * d <> n then q + 1 else q)
  | Z { n; d } ->
    let q, r = B.divmod n d in
    if B.sign r > 0 then B.add q B.one else q

let to_int v =
  if not (is_integer v) then failwith "Rat.to_int: not an integer";
  match v with I { n; _ } -> n | Z { n; _ } -> B.to_int n

let to_float = function
  | I { n; d } -> float_of_int n /. float_of_int d
  | Z { n; d } -> B.to_float n /. B.to_float d

(* the decimal digits of [n <= 0]'s magnitude; counting on the negative
   side keeps [min_int] in range *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [string_of_int n], without the intermediate string *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (- n)

let add_to_buffer buf = function
  | I { n; d } ->
    add_int buf n;
    if d <> 1 then begin
      Buffer.add_char buf '/';
      add_int buf d
    end
  | Z { n; d } ->
    Buffer.add_string buf (B.to_string n);
    if not (B.equal d B.one) then begin
      Buffer.add_char buf '/';
      Buffer.add_string buf (B.to_string d)
    end

let to_string v =
  let buf = Buffer.create 16 in
  add_to_buffer buf v;
  Buffer.contents buf

(* [Some v] when [s] is in Bigint.of_string's grammar (optional sign, then
   decimal digits) with at most 18 digits, so that [v] fits an int *)
let small_dec s =
  let len = String.length s in
  let start = if len > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
  if len = start || len - start > 18 then None
  else begin
    let rec go i acc =
      if i = len then Some (if start = 1 && s.[0] = '-' then - acc else acc)
      else match s.[i] with
        | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - Char.code '0')
        | _ -> None
    in
    go start 0
  end

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let num = String.sub s 0 i in
    let den = String.sub s (i + 1) (String.length s - i - 1) in
    (match small_dec num, small_dec den with
     | Some n, Some d -> of_ints n d
     | _ -> make (B.of_string num) (B.of_string den))
  | None ->
    match String.index_opt s '.' with
    | None -> (match small_dec s with Some n -> of_int n | None -> of_bigint (B.of_string s))
    | Some i ->
      let whole = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      if frac = "" then failwith "Rat.of_string: malformed";
      let scale = B.of_string ("1" ^ String.make (String.length frac) '0') in
      let negative = String.length whole > 0 && whole.[0] = '-' in
      let whole_b = if whole = "" || whole = "-" || whole = "+" then B.zero else B.of_string whole in
      let frac_b = B.of_string frac in
      let mag = B.add (B.mul (B.abs whole_b) scale) frac_b in
      make (if negative then B.neg mag else mag) scale

let pp fmt v = Format.pp_print_string fmt (to_string v)

module Infix = struct
  let ( +/ ) = add
  let ( -/ ) = sub
  let ( */ ) = mul
  let ( // ) = div
  let ( =/ ) a b = equal a b
  let ( </ ) a b = compare a b < 0
  let ( <=/ ) a b = compare a b <= 0
  let ( >/ ) a b = compare a b > 0
  let ( >=/ ) a b = compare a b >= 0
end
