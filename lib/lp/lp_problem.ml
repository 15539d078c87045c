open Ipet_num

type relation = Le | Ge | Eq

type constr = { expr : Linexpr.t; rel : relation; origin : string }

let constr ?(origin = "") expr rel = { expr; rel; origin }
let le ?origin a b = constr ?origin (Linexpr.sub a b) Le
let ge ?origin a b = constr ?origin (Linexpr.sub a b) Ge
let eq ?origin a b = constr ?origin (Linexpr.sub a b) Eq

type direction = Maximize | Minimize

type t = {
  direction : direction;
  objective : Linexpr.t;
  constraints : constr list;
}

let make direction objective constraints = { direction; objective; constraints }

let variables problem =
  List.concat_map (fun c -> Linexpr.vars c.expr) problem.constraints
  |> List.rev_append (Linexpr.vars problem.objective)
  |> List.sort_uniq String.compare

let num_variables problem = List.length (variables problem)

let num_constraints problem = List.length problem.constraints

(* One hash pass numbers the names by first occurrence as it copies the
   rows' terms into flat arrays, a sort ranks the names, and the terms'
   numbers are remapped to the ranks in place; a lookup hashes the name
   and remaps its number. *)
module Columns = struct
  module Table = Hashtbl.Make (struct
    type t = string
    let equal = String.equal
    let hash = Hashtbl.hash
  end)

  type t = {
    constraints : constr list;
    rows : constr array;
    start : int array;  (* row [i]'s terms are [start.(i) .. start.(i+1) - 1] *)
    cols : int array;
    coeffs : Rat.t array;
    names : string array;  (* column -> name *)
    first : int Table.t;  (* name -> provisional number *)
    rank : int array;  (* provisional number -> column *)
  }

  let make constraints =
    let rows = Array.of_list constraints in
    let m = Array.length rows in
    let start = Array.make (m + 1) 0 in
    Array.iteri
      (fun i c ->
        start.(i + 1) <-
          Linexpr.fold_terms (fun _ _ n -> n + 1) c.expr start.(i))
      rows;
    let terms = start.(m) in
    let cols = Array.make terms 0 and coeffs = Array.make terms Rat.zero in
    let first = Table.create 256 and fresh = ref [] in
    let number v =
      match Table.find first v with
      | p -> p
      | exception Not_found ->
        let p = Table.length first in
        Table.add first v p;
        fresh := v :: !fresh;
        p
    in
    Array.iteri
      (fun i c ->
        ignore
          (Linexpr.fold_terms
             (fun v a k ->
               cols.(k) <- number v;
               coeffs.(k) <- a;
               k + 1)
             c.expr start.(i)))
      rows;
    let by_number = Array.of_list (List.rev !fresh) in
    let order = Array.init (Array.length by_number) Fun.id in
    Array.stable_sort
      (fun p q -> String.compare by_number.(p) by_number.(q))
      order;
    let rank = Array.make (Array.length order) 0 in
    Array.iteri (fun j p -> rank.(p) <- j) order;
    Array.iteri (fun k p -> cols.(k) <- rank.(p)) cols;
    { constraints; rows; start; cols; coeffs;
      names = Array.map (Array.get by_number) order; first; rank }

  let constraints t = t.constraints
  let count t = Array.length t.names
  let name t j = t.names.(j)

  let find t v =
    match Table.find_opt t.first v with
    | Some p -> Some t.rank.(p)
    | None -> None

  let rows t = Array.length t.rows
  let row t i = t.rows.(i)

  let fold_row f t i acc =
    let acc = ref acc in
    for k = t.start.(i) to t.start.(i + 1) - 1 do
      acc := f t.cols.(k) t.coeffs.(k) !acc
    done;
    !acc

  let objective t e =
    let obj = Array.make (count t) Rat.zero in
    let outside =
      Linexpr.fold_terms
        (fun v a outside ->
          match find t v with
          | Some j -> obj.(j) <- a; outside
          | None -> (v, a) :: outside)
        e []
    in
    (obj, List.rev outside)
end

let satisfies env c =
  let v = Linexpr.eval env c.expr in
  match c.rel with
  | Le -> Rat.sign v <= 0
  | Ge -> Rat.sign v >= 0
  | Eq -> Rat.is_zero v

let feasible env problem =
  List.for_all (satisfies env) problem.constraints
  && List.for_all (fun v -> Rat.sign (env v) >= 0) (variables problem)

let rel_string = function Le -> "<=" | Ge -> ">=" | Eq -> "="

let pp_constr fmt c =
  (* print as [terms rel -const] for readability *)
  let terms = Linexpr.sub c.expr (Linexpr.const (Linexpr.constant c.expr)) in
  let rhs = Rat.neg (Linexpr.constant c.expr) in
  Format.fprintf fmt "%a %s %a" Linexpr.pp terms (rel_string c.rel) Rat.pp rhs;
  if c.origin <> "" then Format.fprintf fmt "   [%s]" c.origin

let pp fmt problem =
  let dir = match problem.direction with Maximize -> "maximize" | Minimize -> "minimize" in
  Format.fprintf fmt "@[<v>%s %a@,subject to:@," dir Linexpr.pp problem.objective;
  List.iter (fun c -> Format.fprintf fmt "  %a@," pp_constr c) problem.constraints;
  Format.fprintf fmt "  (all variables >= 0)@]"
