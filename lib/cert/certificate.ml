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
   value — no formatting heuristics, no float detours. *)
let add_expr buf e =
  Linexpr.fold_terms
    (fun v k () ->
      Buffer.add_string buf v;
      Buffer.add_char buf '*';
      Buffer.add_string buf (Rat.to_string k);
      Buffer.add_char buf ' ')
    e ();
  Buffer.add_string buf (Rat.to_string (Linexpr.constant e))

let rel_tag = function
  | Lp_problem.Le -> "<=0"
  | Lp_problem.Ge -> ">=0"
  | Lp_problem.Eq -> "=0"

let digest_problem (p : Lp_problem.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "ipet-cert problem v1\n";
  Buffer.add_string buf
    (match p.Lp_problem.direction with
     | Lp_problem.Maximize -> "maximize "
     | Lp_problem.Minimize -> "minimize ");
  add_expr buf p.Lp_problem.objective;
  Buffer.add_char buf '\n';
  List.iter
    (fun (c : Lp_problem.constr) ->
      add_expr buf c.Lp_problem.expr;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (rel_tag c.Lp_problem.rel);
      Buffer.add_char buf ' ';
      Buffer.add_string buf c.Lp_problem.origin;
      Buffer.add_char buf '\n')
    p.Lp_problem.constraints;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let witness_of_assignment assignment =
  List.filter (fun (_, v) -> not (Rat.is_zero v)) assignment
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dir_tag = function
  | Lp_problem.Maximize -> "max"
  | Lp_problem.Minimize -> "min"

(* Line-oriented round-trip format. Variable names contain no whitespace
   (they are flow-variable atoms), so space-separated fields suffice. *)
let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "ipet-cert v1\n";
  Buffer.add_string buf ("direction " ^ dir_tag t.direction ^ "\n");
  Buffer.add_string buf ("bound " ^ Rat.to_string t.bound ^ "\n");
  Buffer.add_string buf ("dual-bound " ^ Rat.to_string t.dual_bound ^ "\n");
  Buffer.add_string buf ("digest " ^ t.digest ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "witness %d\n" (List.length t.witness));
  List.iter
    (fun (v, x) ->
      Buffer.add_string buf (v ^ " " ^ Rat.to_string x ^ "\n"))
    t.witness;
  Buffer.add_string buf (Printf.sprintf "duals %d\n" (Array.length t.duals));
  Array.iter (fun y -> Buffer.add_string buf (Rat.to_string y ^ "\n")) t.duals;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match lines with
  | "ipet-cert v1" :: rest ->
    (try
       let rest = ref rest in
       let next () =
         match !rest with
         | [] -> failwith "truncated certificate"
         | l :: tl ->
           rest := tl;
           l
       in
       let field name =
         let l = next () in
         match String.index_opt l ' ' with
         | Some i when String.sub l 0 i = name ->
           String.sub l (i + 1) (String.length l - i - 1)
         | _ -> failwith (Printf.sprintf "expected %s field" name)
       in
       (* every malformed input must surface as [Error]: callers treat
          [Error] as "re-solve", and any other exception escapes them *)
       let rat s =
         try Rat.of_string s
         with Division_by_zero -> failwith ("zero denominator in " ^ s)
       in
       let count name =
         let n = int_of_string (field name) in
         if n < 0 then failwith (Printf.sprintf "negative %s count" name);
         n
       in
       let direction =
         match field "direction" with
         | "max" -> Lp_problem.Maximize
         | "min" -> Lp_problem.Minimize
         | d -> failwith ("bad direction " ^ d)
       in
       let bound = rat (field "bound") in
       let dual_bound = rat (field "dual-bound") in
       let digest = field "digest" in
       let nw = count "witness" in
       let witness =
         List.init nw (fun _ ->
             let l = next () in
             match String.rindex_opt l ' ' with
             | Some i ->
               ( String.sub l 0 i,
                 rat (String.sub l (i + 1) (String.length l - i - 1)) )
             | None -> failwith "bad witness line")
       in
       let nd = count "duals" in
       (* built as a list so a huge claimed count runs out of lines before
          it can allocate *)
       let duals = Array.of_list (List.init nd (fun _ -> rat (next ()))) in
       if next () <> "end" then failwith "missing end marker";
       (* strict: nothing may follow the end marker but the final newline *)
       (match !rest with
        | [] | [ "" ] -> ()
        | _ -> failwith "trailing content after end marker");
       Ok { direction; bound; dual_bound; duals; witness; digest }
     with Failure m -> error "certificate parse: %s" m)
  | _ -> error "certificate parse: bad header"
