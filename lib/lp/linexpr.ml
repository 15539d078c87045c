open Ipet_num
module SMap = Map.Make (String)

type t = { terms : Rat.t SMap.t; const : Rat.t }

let zero = { terms = SMap.empty; const = Rat.zero }
let const c = { terms = SMap.empty; const = c }
let of_int i = const (Rat.of_int i)

let var ?(coeff = Rat.one) name =
  if Rat.is_zero coeff then zero
  else { terms = SMap.singleton name coeff; const = Rat.zero }

let drop_zero c = if Rat.is_zero c then None else Some c

let add a b =
  let terms =
    SMap.union (fun _ ca cb -> drop_zero (Rat.add ca cb)) a.terms b.terms
  in
  { terms; const = Rat.add a.const b.const }

let scale k e =
  if Rat.is_zero k then zero
  else { terms = SMap.map (Rat.mul k) e.terms; const = Rat.mul k e.const }

let neg e = scale Rat.minus_one e
let sub a b = add a (neg b)

let coeff e name =
  match SMap.find_opt name e.terms with Some c -> c | None -> Rat.zero

let constant e = e.const
let vars e = List.map fst (SMap.bindings e.terms)
let fold_terms f e init = SMap.fold f e.terms init

let eval env e =
  SMap.fold (fun name c acc -> Rat.add acc (Rat.mul c (env name))) e.terms e.const

let is_const e = SMap.is_empty e.terms

let equal a b = SMap.equal Rat.equal a.terms b.terms && Rat.equal a.const b.const

(* folded over the bindings in variable order, never over the map's tree,
   whose shape depends on how the expression was built; [Rat.t] values
   have one representation each, so the generic hash is a value hash *)
let hash e =
  SMap.fold
    (fun name c h -> (((h * 31) + Hashtbl.hash name) * 31) + Hashtbl.hash c)
    e.terms (Hashtbl.hash e.const)

let pp fmt e =
  let pp_term first name c =
    let s = Rat.sign c in
    let mag = Rat.abs c in
    if first then begin
      if s < 0 then Format.pp_print_string fmt "-";
      if not (Rat.equal mag Rat.one) then Format.fprintf fmt "%a " Rat.pp mag;
      Format.pp_print_string fmt name
    end else begin
      Format.pp_print_string fmt (if s < 0 then " - " else " + ");
      if not (Rat.equal mag Rat.one) then Format.fprintf fmt "%a " Rat.pp mag;
      Format.pp_print_string fmt name
    end
  in
  if SMap.is_empty e.terms then Rat.pp fmt e.const
  else begin
    let _ =
      SMap.fold (fun name c first -> pp_term first name c; false) e.terms true
    in
    if not (Rat.is_zero e.const) then begin
      let s = Rat.sign e.const in
      Format.pp_print_string fmt (if s < 0 then " - " else " + ");
      Format.fprintf fmt "%a" Rat.pp (Rat.abs e.const)
    end
  end

let to_string e = Format.asprintf "%a" pp e

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) k e = scale (Rat.of_int k) e
  let int = of_int
  let v name = var name
end
