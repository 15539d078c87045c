type token =
  | INT_LIT of int
  | FLOAT_LIT of float
  | IDENT of string
  | KW_INT | KW_FLOAT | KW_VOID
  | KW_IF | KW_ELSE | KW_WHILE | KW_DO | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQ | NE
  | AMPAMP | BARBAR | BANG
  | AMP | BAR | CARET | SHL | SHR
  | EOF

type located = { tok : token; line : int }

exception Error of string * int

let word_token = function
  | "int" -> KW_INT | "float" -> KW_FLOAT | "void" -> KW_VOID | "if" -> KW_IF
  | "else" -> KW_ELSE | "while" -> KW_WHILE | "do" -> KW_DO | "for" -> KW_FOR
  | "return" -> KW_RETURN | "break" -> KW_BREAK | "continue" -> KW_CONTINUE
  | word -> IDENT word

let is_digit c = c >= '0' && c <= '9'

(* MC integers are E32 words: a literal may spell any 32-bit pattern —
   up to 0xFFFFFFFF / 4294967295 — and is stored as its two's-complement
   value ([Value.wrap32]), so 0xFFFFFFFF reads back as -1 like a C
   [(int)0xFFFFFFFFu]. Anything wider (including literals too long for
   [int_of_string], which used to escape as an uncaught [Failure]) is a
   positioned diagnostic. *)
let int_literal text line =
  match int_of_string_opt text with
  | Some v when v >= 0 && v <= 0xFFFF_FFFF -> Ipet_isa.Value.wrap32 v
  | Some _ | None ->
    raise (Error (Printf.sprintf "integer literal %s out of 32-bit range" text, line))
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let out = ref [] in
  let emit tok = out := { tok; line = !line } :: !out in
  (* is the character after [i] a [c]? *)
  let next_is i c = i + 1 < n && src.[i + 1] = c in
  let rec go i =
    if i >= n then ()
    else begin
      match src.[i] with
      | '\n' -> incr line; go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when next_is i '/' ->
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '/' when next_is i '*' ->
        let rec skip j =
          if j + 1 >= n then raise (Error ("unterminated comment", !line))
          else if src.[j] = '\n' then begin incr line; skip (j + 1) end
          else if src.[j] = '*' && src.[j + 1] = '/' then j + 2
          else skip (j + 1)
        in
        go (skip (i + 2))
      | '0' when next_is i 'x' || next_is i 'X' ->
        let rec scan j = if j < n && is_hex src.[j] then scan (j + 1) else j in
        let stop = scan (i + 2) in
        if stop = i + 2 then raise (Error ("malformed hex literal", !line));
        emit (INT_LIT (int_literal (String.sub src i (stop - i)) !line));
        go stop
      | c when is_digit c ->
        let rec scan j = if j < n && is_digit src.[j] then scan (j + 1) else j in
        let int_end = scan i in
        let is_float =
          int_end < n && src.[int_end] = '.'
          && int_end + 1 < n && is_digit src.[int_end + 1]
        in
        if is_float then begin
          let frac_end = scan (int_end + 1) in
          (* optional exponent *)
          let stop =
            if frac_end < n && (src.[frac_end] = 'e' || src.[frac_end] = 'E') then begin
              let j = frac_end + 1 in
              let j = if j < n && (src.[j] = '+' || src.[j] = '-') then j + 1 else j in
              let stop = scan j in
              if stop = j then raise (Error ("malformed exponent", !line));
              stop
            end
            else frac_end
          in
          emit (FLOAT_LIT (float_of_string (String.sub src i (stop - i))));
          go stop
        end
        else begin
          emit (INT_LIT (int_literal (String.sub src i (int_end - i)) !line));
          go int_end
        end
      | c when is_ident_start c ->
        let rec scan j = if j < n && is_ident_char src.[j] then scan (j + 1) else j in
        let stop = scan i in
        emit (word_token (String.sub src i (stop - i)));
        go stop
      | '(' -> emit LPAREN; go (i + 1)
      | ')' -> emit RPAREN; go (i + 1)
      | '{' -> emit LBRACE; go (i + 1)
      | '}' -> emit RBRACE; go (i + 1)
      | '[' -> emit LBRACKET; go (i + 1)
      | ']' -> emit RBRACKET; go (i + 1)
      | ';' -> emit SEMI; go (i + 1)
      | ',' -> emit COMMA; go (i + 1)
      | '+' -> emit PLUS; go (i + 1)
      | '-' -> emit MINUS; go (i + 1)
      | '*' -> emit STAR; go (i + 1)
      | '/' -> emit SLASH; go (i + 1)
      | '%' -> emit PERCENT; go (i + 1)
      | '^' -> emit CARET; go (i + 1)
      | '<' when next_is i '=' -> emit LE; go (i + 2)
      | '<' when next_is i '<' -> emit SHL; go (i + 2)
      | '<' -> emit LT; go (i + 1)
      | '>' when next_is i '=' -> emit GE; go (i + 2)
      | '>' when next_is i '>' -> emit SHR; go (i + 2)
      | '>' -> emit GT; go (i + 1)
      | '=' when next_is i '=' -> emit EQ; go (i + 2)
      | '=' -> emit ASSIGN; go (i + 1)
      | '!' when next_is i '=' -> emit NE; go (i + 2)
      | '!' -> emit BANG; go (i + 1)
      | '&' when next_is i '&' -> emit AMPAMP; go (i + 2)
      | '&' -> emit AMP; go (i + 1)
      | '|' when next_is i '|' -> emit BARBAR; go (i + 2)
      | '|' -> emit BAR; go (i + 1)
      | c -> raise (Error (Printf.sprintf "illegal character %C" c, !line))
    end
  in
  go 0;
  emit EOF;
  List.rev !out

let token_name = function
  | INT_LIT i -> string_of_int i
  | FLOAT_LIT f -> string_of_float f
  | IDENT s -> s
  | KW_INT -> "int" | KW_FLOAT -> "float" | KW_VOID -> "void"
  | KW_IF -> "if" | KW_ELSE -> "else" | KW_WHILE -> "while" | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_RETURN -> "return" | KW_BREAK -> "break" | KW_CONTINUE -> "continue"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | SEMI -> ";" | COMMA -> ","
  | ASSIGN -> "=" | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | PERCENT -> "%" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | EQ -> "==" | NE -> "!=" | AMPAMP -> "&&" | BARBAR -> "||" | BANG -> "!"
  | AMP -> "&" | BAR -> "|" | CARET -> "^" | SHL -> "<<" | SHR -> ">>"
  | EOF -> "<eof>"
