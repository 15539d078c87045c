exception Error of string * int

let fail line fmt = Format.kasprintf (fun s -> raise (Error (s, line))) fmt

(* --- per-line scanner ------------------------------------------------------ *)

type scanner = { text : string; mutable pos : int; line : int }

let skip_ws sc =
  while sc.pos < String.length sc.text
        && (sc.text.[sc.pos] = ' ' || sc.text.[sc.pos] = '\t') do
    sc.pos <- sc.pos + 1
  done

let at_end sc =
  skip_ws sc;
  sc.pos >= String.length sc.text

let peek_char sc =
  skip_ws sc;
  if sc.pos < String.length sc.text then Some sc.text.[sc.pos] else None

let expect_char sc c =
  skip_ws sc;
  if sc.pos < String.length sc.text && sc.text.[sc.pos] = c then sc.pos <- sc.pos + 1
  else fail sc.line "expected %C" c

let accept_char sc c =
  skip_ws sc;
  if sc.pos < String.length sc.text && sc.text.[sc.pos] = c then begin
    sc.pos <- sc.pos + 1;
    true
  end
  else false

let accept_string sc s =
  skip_ws sc;
  let n = String.length s in
  if sc.pos + n <= String.length sc.text && String.sub sc.text sc.pos n = s then begin
    sc.pos <- sc.pos + n;
    true
  end
  else false

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let word sc =
  skip_ws sc;
  let start = sc.pos in
  while sc.pos < String.length sc.text && is_word_char sc.text.[sc.pos] do
    sc.pos <- sc.pos + 1
  done;
  if sc.pos = start then fail sc.line "expected a word";
  String.sub sc.text start (sc.pos - start)

(* a numeric field: one [conv] rejects, malformed or beyond the native
   range, is an error on its line *)
let literal line conv lit =
  match conv lit with
  | Some v -> v
  | None -> fail line "malformed or out-of-range literal %s" lit

let integer sc =
  skip_ws sc;
  let start = sc.pos in
  if sc.pos < String.length sc.text && sc.text.[sc.pos] = '-' then sc.pos <- sc.pos + 1;
  while sc.pos < String.length sc.text && sc.text.[sc.pos] >= '0'
        && sc.text.[sc.pos] <= '9' do
    sc.pos <- sc.pos + 1
  done;
  if sc.pos = start then fail sc.line "expected an integer";
  literal sc.line int_of_string_opt (String.sub sc.text start (sc.pos - start))

(* a numeric literal after '#': float when it contains . e n i *)
let immediate sc =
  skip_ws sc;
  expect_char sc '#';
  let start = sc.pos in
  let numeric c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
    || c = 'n' || c = 'a' || c = 'i' || c = 'f'
  in
  while sc.pos < String.length sc.text && numeric sc.text.[sc.pos] do
    sc.pos <- sc.pos + 1
  done;
  let lit = String.sub sc.text start (sc.pos - start) in
  if lit = "" then fail sc.line "expected a literal after #";
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') lit then
    Instr.Fimm (literal sc.line float_of_string_opt lit)
  else Instr.Imm (literal sc.line int_of_string_opt lit)

let register sc =
  skip_ws sc;
  if not (accept_char sc 'r') then fail sc.line "expected a register";
  integer sc

let operand sc =
  match peek_char sc with
  | Some '#' -> immediate sc
  | Some 'r' -> Instr.Reg (register sc)
  | Some c -> fail sc.line "expected an operand, found %C" c
  | None -> fail sc.line "expected an operand at end of line"

let block_ref sc =
  skip_ws sc;
  if not (accept_char sc 'B') then fail sc.line "expected a block label";
  integer sc

(* [base(+offset)?(+index)?] *)
let address sc =
  expect_char sc '[';
  let base =
    if accept_string sc "fp" then Instr.Frame_base
    else Instr.Abs (integer sc)
  in
  let offset = ref 0 in
  let index = ref None in
  while accept_char sc '+' do
    match peek_char sc with
    | Some ('#' | 'r') -> index := Some (operand sc)
    | Some _ | None -> offset := !offset + integer sc
  done;
  expect_char sc ']';
  { Instr.base; offset = !offset; index = !index }

(* --- instruction / terminator lines ---------------------------------------- *)

let alu_ops =
  [ ("add", Instr.Add); ("sub", Instr.Sub); ("mul", Instr.Mul);
    ("div", Instr.Div); ("rem", Instr.Rem); ("and", Instr.And);
    ("or", Instr.Or); ("xor", Instr.Xor); ("shl", Instr.Shl);
    ("shr", Instr.Shr) ]

let fpu_ops =
  [ ("fadd", Instr.Fadd); ("fsub", Instr.Fsub); ("fmul", Instr.Fmul);
    ("fdiv", Instr.Fdiv) ]

let cmp_ops =
  [ ("eq", Instr.Ceq); ("ne", Instr.Cne); ("lt", Instr.Clt);
    ("le", Instr.Cle); ("gt", Instr.Cgt); ("ge", Instr.Cge) ]

let three_address sc make =
  let d = register sc in
  expect_char sc ',';
  let a = operand sc in
  expect_char sc ',';
  let b = operand sc in
  make d a b

type parsed_line =
  | Pinstr of Instr.t
  | Pterm of Instr.terminator

let parse_mnemonic sc mnemonic =
  match mnemonic with
  | "mov" ->
    let d = register sc in
    expect_char sc ',';
    Pinstr (Instr.Mov (d, operand sc))
  | "itof" ->
    let d = register sc in
    expect_char sc ',';
    Pinstr (Instr.Itof (d, operand sc))
  | "ftoi" ->
    let d = register sc in
    expect_char sc ',';
    Pinstr (Instr.Ftoi (d, operand sc))
  | "ld" ->
    let d = register sc in
    expect_char sc ',';
    Pinstr (Instr.Load (d, address sc))
  | "st" ->
    let v = operand sc in
    expect_char sc ',';
    Pinstr (Instr.Store (v, address sc))
  | "call" ->
    (* either [call rD, callee(args)] or [call callee(args)] *)
    skip_ws sc;
    let saved = sc.pos in
    let dst, callee =
      if peek_char sc = Some 'r' then begin
        let w = word sc in
        if accept_char sc ',' then
          (* the word was the result register, e.g. "r0" *)
          (match int_of_string_opt (String.sub w 1 (String.length w - 1)) with
           | Some r when w.[0] = 'r' -> (Some r, word sc)
           | Some _ | None -> fail sc.line "malformed call result register")
        else begin
          (* the word was already the callee name (starting with r) *)
          sc.pos <- saved;
          (None, word sc)
        end
      end
      else (None, word sc)
    in
    expect_char sc '(';
    let args = ref [] in
    if not (accept_char sc ')') then begin
      let rec more () =
        args := operand sc :: !args;
        if accept_char sc ',' then more () else expect_char sc ')'
      in
      more ()
    end;
    Pinstr (Instr.Call (dst, callee, List.rev !args))
  | "jmp" -> Pterm (Instr.Jump (block_ref sc))
  | "br" ->
    let r = register sc in
    expect_char sc '?';
    let t = block_ref sc in
    expect_char sc ':';
    let f = block_ref sc in
    Pterm (Instr.Branch (r, t, f))
  | "ret" ->
    if at_end sc then Pterm (Instr.Return None)
    else Pterm (Instr.Return (Some (operand sc)))
  | _ ->
    (match String.index_opt mnemonic '.' with
     | Some i ->
       let head = String.sub mnemonic 0 i in
       let tail = String.sub mnemonic (i + 1) (String.length mnemonic - i - 1) in
       let cmp =
         match List.assoc_opt tail cmp_ops with
         | Some c -> c
         | None -> fail sc.line "unknown comparison %s" tail
       in
       (match head with
        | "cmp" -> Pinstr (three_address sc (fun d a b -> Instr.Icmp (cmp, d, a, b)))
        | "fcmp" -> Pinstr (three_address sc (fun d a b -> Instr.Fcmp (cmp, d, a, b)))
        | _ -> fail sc.line "unknown mnemonic %s" mnemonic)
     | None ->
       (match List.assoc_opt mnemonic alu_ops with
        | Some op -> Pinstr (three_address sc (fun d a b -> Instr.Alu (op, d, a, b)))
        | None ->
          (match List.assoc_opt mnemonic fpu_ops with
           | Some op ->
             Pinstr (three_address sc (fun d a b -> Instr.Fpu (op, d, a, b)))
           | None -> fail sc.line "unknown mnemonic %s" mnemonic)))

(* --- whole-listing parser ---------------------------------------------------- *)

type pending_block = {
  pid : int;
  pline : int;
  mutable pinstrs : Instr.t list;  (* reversed *)
  mutable pterm : Instr.terminator option;
}

type pending_func = {
  fname : string;
  nparams : int;
  frame_words : int;
  mutable blocks : pending_block list;  (* reversed *)
}

let strip_comment text =
  (* an instruction line never contains ';' outside a comment *)
  match String.index_opt text ';' with
  | Some i -> String.sub text 0 i
  | None -> text

let header_comment_line text =
  (* "B0:   ; line 12" -> the source line number, if present *)
  match String.index_opt text ';' with
  | None -> 0
  | Some i ->
    let sc =
      { text = String.sub text (i + 1) (String.length text - i - 1); pos = 0; line = 0 }
    in
    if accept_string sc "line" then (try integer sc with Error _ -> 0) else 0

let finish_block line (b : pending_block) =
  match b.pterm with
  | None -> fail line "block B%d has no terminator" b.pid
  | Some term ->
    { Prog.id = b.pid;
      instrs = Array.of_list (List.rev b.pinstrs);
      term;
      src_line = b.pline }

let finish_func line (f : pending_func) =
  let blocks = List.rev_map (finish_block line) f.blocks in
  let blocks = List.sort (fun a b -> compare a.Prog.id b.Prog.id) blocks in
  List.iteri
    (fun i (b : Prog.block) ->
      if b.Prog.id <> i then fail line "function %s: block ids not contiguous" f.fname)
    blocks;
  { Prog.name = f.fname;
    nparams = f.nparams;
    frame_words = f.frame_words;
    blocks = Array.of_list blocks }

let parse text =
  let globals = ref [] in
  let globals_words = ref 0 in
  let funcs = ref [] in
  let current_func : pending_func option ref = ref None in
  let current_block : pending_block option ref = ref None in
  let close_func lineno =
    (match !current_func with
     | Some f -> funcs := finish_func lineno f :: !funcs
     | None -> ());
    current_func := None;
    current_block := None
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let trimmed = String.trim raw in
      if trimmed = "" then ()
      else if String.length trimmed > 7 && String.sub trimmed 0 7 = ".global" then begin
        (* .global name @ addr (size words) *)
        let sc = { text = trimmed; pos = 7; line = lineno } in
        let name = word sc in
        expect_char sc '@';
        let addr = integer sc in
        expect_char sc '(';
        let size = integer sc in
        if not (accept_string sc "words") then fail lineno "expected 'words'";
        expect_char sc ')';
        globals := { Prog.gname = name; addr; size_words = size } :: !globals;
        globals_words := max !globals_words (addr + size)
      end
      else if trimmed.[0] = 'B' && String.contains trimmed ':'
              && (let digits =
                    String.sub trimmed 1 (String.index trimmed ':' - 1)
                  in
                  digits <> ""
                  && String.for_all (fun c -> c >= '0' && c <= '9') digits)
      then begin
        (* block header *)
        let colon = String.index trimmed ':' in
        let id =
          literal lineno int_of_string_opt (String.sub trimmed 1 (colon - 1))
        in
        let src_line = header_comment_line trimmed in
        match !current_func with
        | None -> fail lineno "block header outside of a function"
        | Some f ->
          let b = { pid = id; pline = src_line; pinstrs = []; pterm = None } in
          f.blocks <- b :: f.blocks;
          current_block := Some b
      end
      else if String.length trimmed > 1
              && trimmed.[String.length trimmed - 1] = ':'
              && String.contains trimmed '(' then begin
        (* function header: name(N params, M frame words): *)
        close_func lineno;
        let sc = { text = trimmed; pos = 0; line = lineno } in
        let name = word sc in
        expect_char sc '(';
        let nparams = integer sc in
        if not (accept_string sc "params") then fail lineno "expected 'params'";
        expect_char sc ',';
        let frame = integer sc in
        if not (accept_string sc "frame") then fail lineno "expected 'frame'";
        if not (accept_string sc "words") then fail lineno "expected 'words'";
        expect_char sc ')';
        expect_char sc ':';
        if List.exists (fun (g : Prog.func) -> g.Prog.name = name) !funcs then
          fail lineno "redefinition of function %s" name;
        current_func := Some { fname = name; nparams; frame_words = frame; blocks = [] }
      end
      else begin
        (* instruction or terminator *)
        let body = strip_comment trimmed in
        if String.trim body = "" then ()
        else begin
          let sc = { text = body; pos = 0; line = lineno } in
          let mnemonic = word sc in
          match !current_block with
          | None -> fail lineno "instruction outside of a block"
          | Some b ->
            if b.pterm <> None then fail lineno "instruction after the terminator";
            (match parse_mnemonic sc mnemonic with
             | Pinstr i -> b.pinstrs <- i :: b.pinstrs
             | Pterm t -> b.pterm <- Some t);
            if not (at_end sc) then fail lineno "trailing input"
        end
      end)
    (String.split_on_char '\n' text);
  close_func (1 + List.length (String.split_on_char '\n' text));
  let prog =
    { Prog.funcs = Array.of_list (List.rev !funcs);
      globals = List.rev !globals;
      globals_words = !globals_words }
  in
  (match Prog.validate prog with
   | Ok () -> ()
   | Error msg -> fail 0 "invalid program: %s" msg);
  prog
