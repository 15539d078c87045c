exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* Four times this is below [max_int]: a relation's two sides each weigh
   at most this, so {!Functional}'s sums, differences and interval
   rounding over a parsed atom stay in range. *)
let max_literal = 1_000_000_000_000_000_000

(* --- tokens -------------------------------------------------------------- *)

type token =
  | Tint of int
  | Tx of [ `Block of int | `Line of int ]
  | Tplus | Tminus
  | Teq | Tle | Tge
  | Tamp | Tbar
  | Tlparen | Trparen
  | Tend

let tokenize text =
  let n = String.length text in
  let out = ref [] in
  (* the digits from [i] and their value; a literal above [max_literal]
     is an error that names it *)
  let scan_int i =
    let rec go j acc =
      if j < n && text.[j] >= '0' && text.[j] <= '9' then
        let d = Char.code text.[j] - Char.code '0' in
        let acc =
          if acc > (max_literal - d) / 10 then max_literal + 1
          else (acc * 10) + d
        in
        go (j + 1) acc
      else (j, acc)
    in
    let j, v = go i 0 in
    if v > max_literal then
      fail "literal %s is larger than 10^18" (String.sub text i (j - i));
    (j, v)
  in
  let rec go i =
    if i >= n then ()
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '0' .. '9' ->
        let j, v = scan_int i in
        out := Tint v :: !out;
        go j
      | 'x' ->
        if i + 1 < n && text.[i + 1] = '@' then begin
          let j, v = scan_int (i + 2) in
          if j = i + 2 then fail "expected a line number after x@";
          out := Tx (`Line v) :: !out;
          go j
        end
        else begin
          let j, v = scan_int (i + 1) in
          if j = i + 1 then fail "expected a block id after x";
          out := Tx (`Block v) :: !out;
          go j
        end
      | '+' -> out := Tplus :: !out; go (i + 1)
      | '-' -> out := Tminus :: !out; go (i + 1)
      | '=' -> out := Teq :: !out; go (i + 1)
      | '<' when i + 1 < n && text.[i + 1] = '=' -> out := Tle :: !out; go (i + 2)
      | '>' when i + 1 < n && text.[i + 1] = '=' -> out := Tge :: !out; go (i + 2)
      | '&' -> out := Tamp :: !out; go (i + 1)
      | '|' -> out := Tbar :: !out; go (i + 1)
      | '(' -> out := Tlparen :: !out; go (i + 1)
      | ')' -> out := Trparen :: !out; go (i + 1)
      | c -> fail "illegal character %C in constraint" c
  in
  go 0;
  Array.of_list (List.rev (Tend :: !out))

(* --- parser -------------------------------------------------------------- *)

type state = {
  toks : token array;
  mutable pos : int;
  func : string;
  text : string;
}

let peek st = st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let ref_lin st r =
  match r with
  | `Block b -> Functional.x ~func:st.func b
  | `Line l -> Functional.x_at ~func:st.func ~line:l

(* term := INT | [INT] ref *)
let parse_term st ~sign =
  match peek st with
  | Tint k ->
    advance st;
    (match peek st with
     | Tx r ->
       advance st;
       Functional.scale (sign * k) (ref_lin st r)
     | Tint _ | Tplus | Tminus | Teq | Tle | Tge | Tamp | Tbar | Tlparen
     | Trparen | Tend -> Functional.const (sign * k))
  | Tx r ->
    advance st;
    Functional.scale sign (ref_lin st r)
  | Tplus | Tminus | Teq | Tle | Tge | Tamp | Tbar | Tlparen | Trparen | Tend ->
    fail "expected a term"

(* a term's one literal: its coefficient or its constant *)
let magnitude (t : Functional.lin) =
  match t.Functional.terms with
  | [ (c, _) ] -> abs c
  | _ -> abs t.Functional.const

(* a side; the magnitudes of its literals add up to at most
   [max_literal], which bounds every value {!Functional} computes from it *)
let parse_lin st =
  let first_sign = if peek st = Tminus then (advance st; -1) else 1 in
  let acc = ref (parse_term st ~sign:first_sign) in
  let sum = ref (magnitude !acc) in
  let add term =
    acc := Functional.add !acc term;
    sum := !sum + magnitude term;
    if !sum > max_literal then
      fail "the literals of one side of %S add up to more than 10^18" st.text
  in
  let rec loop () =
    match peek st with
    | Tplus ->
      advance st;
      add (parse_term st ~sign:1);
      loop ()
    | Tminus ->
      advance st;
      add (parse_term st ~sign:(-1));
      loop ()
    | Tint _ | Tx _ | Teq | Tle | Tge | Tamp | Tbar | Tlparen | Trparen | Tend -> ()
  in
  loop ();
  !acc

let rec parse_disj st =
  let first = parse_conj st in
  let rec loop acc =
    if peek st = Tbar then begin
      advance st;
      loop (parse_conj st :: acc)
    end
    else List.rev acc
  in
  match loop [ first ] with
  | [ single ] -> single
  | several -> Functional.disj several

and parse_conj st =
  let first = parse_atom st in
  let rec loop acc =
    if peek st = Tamp then begin
      advance st;
      loop (parse_atom st :: acc)
    end
    else List.rev acc
  in
  match loop [ first ] with
  | [ single ] -> single
  | several -> Functional.conj several

and parse_atom st =
  if peek st = Tlparen then begin
    advance st;
    let inner = parse_disj st in
    if peek st <> Trparen then fail "expected ')'";
    advance st;
    inner
  end
  else begin
    let lhs = parse_lin st in
    let rel =
      match peek st with
      | Teq -> Functional.Eq
      | Tle -> Functional.Le
      | Tge -> Functional.Ge
      | Tint _ | Tx _ | Tplus | Tminus | Tamp | Tbar | Tlparen | Trparen | Tend ->
        fail "expected '=', '<=' or '>='"
    in
    advance st;
    let rhs = parse_lin st in
    Functional.Rel { Functional.lhs; rel; rhs }
  end

let parse_constraint ~func text =
  let st = { toks = tokenize text; pos = 0; func; text } in
  let c = parse_disj st in
  if peek st <> Tend then fail "trailing input in constraint %S" text;
  c

(* --- annotation files ---------------------------------------------------- *)

type annotation_file = {
  root : string option;
  loop_bounds : Annotation.t list;
  functional : Functional.t list;
}

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_annotation_text text =
  let root = ref None in
  let loops = ref [] in
  let constraints = ref [] in
  List.iteri
    (fun lineno raw ->
      let line = String.trim (strip_comment raw) in
      if line <> "" then begin
        let context_fail fmt =
          Format.kasprintf
            (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" (lineno + 1) s)))
            fmt
        in
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ "root"; name ] -> root := Some name
        | "root" :: _ -> context_fail "root takes exactly one function name"
        | [ "loop"; func; hline; lo; hi ] ->
          (match (int_of_string_opt hline, int_of_string_opt lo, int_of_string_opt hi) with
           | Some hline, Some lo, Some hi ->
             loops := Annotation.loop ~func ~line:hline ~lo ~hi :: !loops
           | _ -> context_fail "loop expects: loop <func> <line> <lo> <hi>")
        | "loop" :: _ -> context_fail "loop expects: loop <func> <line> <lo> <hi>"
        | "constr" :: func :: rest when rest <> [] ->
          let body = String.concat " " rest in
          (try constraints := parse_constraint ~func body :: !constraints
           with Parse_error msg -> context_fail "%s" msg)
        | "constr" :: _ -> context_fail "constr expects: constr <func> <constraint>"
        | word :: _ -> context_fail "unknown directive %s" word
        | [] -> ()
      end)
    (String.split_on_char '\n' text);
  { root = !root; loop_bounds = List.rev !loops; functional = List.rev !constraints }
