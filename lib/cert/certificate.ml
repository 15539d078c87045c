open Ipet_num
open Ipet_lp

type t = {
  direction : Lp_problem.direction;
  bound : Rat.t;
  dual_bound : Rat.t;
  duals : Rat.t array;
  witness : (string * Rat.t) list;
  digest : string;
}

(* Canonical rendering of a problem for digesting. Linexpr terms come out
   of a sorted map, so the rendering is a pure function of the problem
   value — no formatting heuristics, no float detours. Every number is
   written straight into the one buffer ([Rat.add_to_buffer]), so a
   digest allocates no string per coefficient. *)
let add_expr buf e =
  Linexpr.fold_terms
    (fun v k () ->
      Buffer.add_string buf v;
      Buffer.add_char buf '*';
      Rat.add_to_buffer buf k;
      Buffer.add_char buf ' ')
    e ();
  Rat.add_to_buffer buf (Linexpr.constant e)

let rel_tag = function
  | Lp_problem.Le -> "<=0"
  | Lp_problem.Ge -> ">=0"
  | Lp_problem.Eq -> "=0"

let add_head buf direction objective =
  Buffer.add_string buf "ipet-cert problem v1\n";
  Buffer.add_string buf
    (match direction with
     | Lp_problem.Maximize -> "maximize "
     | Lp_problem.Minimize -> "minimize ");
  add_expr buf objective;
  Buffer.add_char buf '\n'

let add_rows buf constraints =
  List.iter
    (fun (c : Lp_problem.constr) ->
      add_expr buf c.Lp_problem.expr;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (rel_tag c.Lp_problem.rel);
      Buffer.add_char buf ' ';
      Buffer.add_string buf c.Lp_problem.origin;
      Buffer.add_char buf '\n')
    constraints

let text write =
  let buf = Buffer.create 4096 in
  write buf;
  Buffer.contents buf

let md5 s = Digest.to_hex (Digest.string s)

let digest_problem (p : Lp_problem.t) =
  md5
    (text (fun buf ->
         add_head buf p.Lp_problem.direction p.Lp_problem.objective;
         add_rows buf p.Lp_problem.constraints))

let rows_text constraints = text (fun buf -> add_rows buf constraints)

let digest_rows direction objective ~rows =
  md5 (text (fun buf -> add_head buf direction objective) ^ rows)

let witness_of_assignment assignment =
  List.filter (fun (_, v) -> not (Rat.is_zero v)) assignment
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Json = Ipet_obs.Json

let to_json t =
  let rat q = Json.Str (Rat.to_string q) in
  Json.Obj
    [ ("version", Json.Int 1);
      ( "direction",
        Json.Str
          (match t.direction with
           | Lp_problem.Maximize -> "max"
           | Lp_problem.Minimize -> "min") );
      ("bound", rat t.bound);
      ("dual_bound", rat t.dual_bound);
      ("digest", Json.Str t.digest);
      ("witness", Json.Obj (List.map (fun (v, x) -> (v, rat x)) t.witness));
      ("duals", Json.List (Array.to_list (Array.map rat t.duals))) ]

let of_json j =
  let fail fmt = Printf.ksprintf failwith fmt in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> v
    | None -> fail "missing or mistyped field %s" name
  in
  (* every malformed input must surface as [Error]: callers treat [Error]
     as "re-solve", and any other exception escapes them *)
  let rat what v =
    match Json.to_str v with
    | Some s ->
      (try Rat.of_string s
       with Failure _ | Division_by_zero -> fail "bad rational %S in %s" s what)
    | None -> fail "%s is not a rational string" what
  in
  let obj = function Json.Obj fields -> Some fields | _ -> None in
  match
    if field "version" Json.to_int <> 1 then fail "unsupported version";
    { direction =
        (match field "direction" Json.to_str with
         | "max" -> Lp_problem.Maximize
         | "min" -> Lp_problem.Minimize
         | d -> fail "bad direction %S" d);
      bound = rat "bound" (field "bound" Option.some);
      dual_bound = rat "dual_bound" (field "dual_bound" Option.some);
      digest = field "digest" Json.to_str;
      witness = List.map (fun (v, x) -> (v, rat v x)) (field "witness" obj);
      duals =
        Array.of_list (List.map (rat "duals") (field "duals" Json.to_list)) }
  with
  | t -> Ok t
  | exception Failure m -> Error ("certificate: " ^ m)
