(* Sign-magnitude bignum over base-2^30 limbs, little-endian, no leading
   zero limbs; [sign] is 0 exactly when the magnitude is empty. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int i =
  if i = 0 then zero
  else if i > - base && i < base then
    { sign = (if i < 0 then -1 else 1); mag = [| Stdlib.abs i |] }
  else begin
    (* native ints are 63-bit, so the magnitude always fits in an Int64 *)
    let sign = if i < 0 then -1 else 1 in
    let rec limbs v acc =
      if Int64.equal v 0L then List.rev acc
      else
        limbs (Int64.shift_right_logical v limb_bits)
          (Int64.to_int (Int64.logand v (Int64.of_int limb_mask)) :: acc)
    in
    normalize sign (Array.of_list (limbs (Int64.abs (Int64.of_int i)) []))
  end

let one = of_int 1
let minus_one = of_int (-1)

let sign v = v.sign
let is_zero v = v.sign = 0

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  out

(* requires mag a >= mag b *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin out.(i) <- s + base; borrow := 1 end
    else begin out.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  out

let neg v = if v.sign = 0 then v else { v with sign = - v.sign }
let abs v = if v.sign < 0 then neg v else v

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match compare_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        (* ai, bj < 2^30 so the product fits in 60 bits + carry/acc headroom *)
        let acc = out.(i + j) + (ai * b.mag.(j)) + !carry in
        out.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let acc = out.(!k) + !carry in
        out.(!k) <- acc land limb_mask;
        carry := acc lsr limb_bits;
        incr k
      done
    done;
    normalize (a.sign * b.sign) out
  end

let bit_length_mag m =
  let n = Array.length m in
  if n = 0 then 0
  else begin
    let top = m.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    (n - 1) * limb_bits + bits top 0
  end

(* magnitude shifted left by [k] bits *)
let shl_mag m k =
  if Array.length m = 0 then m
  else begin
    let words = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length m in
    let out = Array.make (n + words + 1) 0 in
    for i = 0 to n - 1 do
      let v = m.(i) lsl bits in
      out.(i + words) <- out.(i + words) lor (v land limb_mask);
      out.(i + words + 1) <- out.(i + words + 1) lor (v lsr limb_bits)
    done;
    out
  end

(* in-place logical shift right by one bit; [m] must be mutable scratch *)
let shr1_mag_inplace m =
  let n = Array.length m in
  for i = 0 to n - 1 do
    let hi = if i + 1 < n then m.(i + 1) land 1 else 0 in
    m.(i) <- (m.(i) lsr 1) lor (hi lsl (limb_bits - 1))
  done

let set_bit_mag m k =
  m.(k / limb_bits) <- m.(k / limb_bits) lor (1 lsl (k mod limb_bits))

(* binary long division on magnitudes: returns (quotient, remainder) *)
let divmod_mag n d =
  if compare_mag n d < 0 then ([||], Array.copy n)
  else begin
    let shift = bit_length_mag n - bit_length_mag d in
    let r = Array.make (Array.length n + 1) 0 in
    Array.blit n 0 r 0 (Array.length n);
    let dd = shl_mag d shift in
    let dd = Array.append dd (Array.make (Stdlib.max 0 (Array.length r - Array.length dd)) 0) in
    let r = Array.append r (Array.make (Stdlib.max 0 (Array.length dd - Array.length r)) 0) in
    let q = Array.make (shift / limb_bits + 1) 0 in
    for i = shift downto 0 do
      if compare_mag r dd >= 0 then begin
        let diff = sub_mag r dd in
        Array.blit diff 0 r 0 (Array.length diff);
        (* sub_mag result has same length as r, so no stale high limbs *)
        set_bit_mag q i
      end;
      shr1_mag_inplace dd
    done;
    (q, r)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q = normalize (a.sign * b.sign) qm in
    let r = normalize a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let to_int_opt v =
  (* accumulate the magnitude negated so that min_int stays representable *)
  let rec go i acc =
    if i < 0 then Some acc
    else begin
      let limb = v.mag.(i) in
      if acc < min_int / base then None
      else begin
        let shifted = acc * base in
        if shifted < min_int + limb then None else go (i - 1) (shifted - limb)
      end
    end
  in
  match go (Array.length v.mag - 1) 0 with
  | None -> None
  | Some m ->
    if v.sign < 0 then Some m else if m = min_int then None else Some (-m)

let to_int v =
  match to_int_opt v with
  | Some i -> i
  | None -> failwith "Bigint.to_int: overflow"

let ten = of_int 10

(* 10^9 < 2^30 is one limb, so dividing by it is one pass of short
   division (each step's dividend [r * base + limb] < 2^60 fits a native
   int): nine digits per pass makes printing quadratic, not the cubic of
   one bit-serial long division per digit *)
let chunk = 1_000_000_000

(* the base-10^9 digits of [mag], most significant first, before [acc] *)
let rec chunks mag acc =
  if Array.length mag = 0 then acc
  else begin
    let q = Array.make (Array.length mag) 0 and r = ref 0 in
    for i = Array.length mag - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor mag.(i) in
      q.(i) <- cur / chunk;
      r := cur mod chunk
    done;
    chunks (normalize 1 q).mag (!r :: acc)
  end

let to_string v =
  match chunks v.mag [] with
  | [] -> "0"
  | top :: rest ->
    String.concat ""
      (((if v.sign < 0 then "-" else "") ^ string_of_int top)
       :: List.map (Printf.sprintf "%09d") rest)

let of_string s =
  let n = String.length s in
  if n = 0 then failwith "Bigint.of_string: empty";
  let sign, start = match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | '0' .. '9' -> (1, 0)
    | _ -> failwith "Bigint.of_string: malformed"
  in
  if start >= n then failwith "Bigint.of_string: malformed";
  let acc = ref zero in
  for i = start to n - 1 do
    match s.[i] with
    | '0' .. '9' as c -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
    | _ -> failwith "Bigint.of_string: malformed"
  done;
  if sign < 0 then neg !acc else !acc

let to_float v =
  let m = ref 0.0 in
  for i = Array.length v.mag - 1 downto 0 do
    m := (!m *. float_of_int base) +. float_of_int v.mag.(i)
  done;
  if v.sign < 0 then -. !m else !m

let pp fmt v = Format.pp_print_string fmt (to_string v)
