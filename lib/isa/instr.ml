type reg = int

type operand = Reg of reg | Imm of int | Fimm of float

type base = Abs of int | Frame_base

type addr = { base : base; offset : int; index : operand option }

type alu_op = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type fpu_op = Fadd | Fsub | Fmul | Fdiv
type cmp_op = Ceq | Cne | Clt | Cle | Cgt | Cge

type t =
  | Alu of alu_op * reg * operand * operand
  | Fpu of fpu_op * reg * operand * operand
  | Icmp of cmp_op * reg * operand * operand
  | Fcmp of cmp_op * reg * operand * operand
  | Mov of reg * operand
  | Itof of reg * operand
  | Ftoi of reg * operand
  | Load of reg * addr
  | Store of operand * addr
  | Call of reg option * string * operand list

type terminator =
  | Jump of int
  | Branch of reg * int * int
  | Return of operand option

let bytes_per_instr = 4

let operand_uses = function Reg r -> [ r ] | Imm _ | Fimm _ -> []

let addr_uses a = match a.index with Some op -> operand_uses op | None -> []

let defs = function
  | Alu (_, d, _, _) | Fpu (_, d, _, _) | Icmp (_, d, _, _) | Fcmp (_, d, _, _)
  | Mov (d, _) | Itof (d, _) | Ftoi (d, _) | Load (d, _) -> [ d ]
  | Store (_, _) -> []
  | Call (Some d, _, _) -> [ d ]
  | Call (None, _, _) -> []

let uses = function
  | Alu (_, _, a, b) | Fpu (_, _, a, b) | Icmp (_, _, a, b) | Fcmp (_, _, a, b) ->
    operand_uses a @ operand_uses b
  | Mov (_, a) | Itof (_, a) | Ftoi (_, a) -> operand_uses a
  | Load (_, addr) -> addr_uses addr
  | Store (v, addr) -> operand_uses v @ addr_uses addr
  | Call (_, _, args) -> List.concat_map operand_uses args

let is_load = function Load _ -> true | _ -> false
let is_store = function Store _ -> true | _ -> false
let is_call = function Call _ -> true | _ -> false

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

let fpu_name = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let cmp_name = function
  | Ceq -> "eq" | Cne -> "ne" | Clt -> "lt" | Cle -> "le" | Cgt -> "gt" | Cge -> "ge"

let float_literal f =
  (* keep float immediates distinguishable from ints in the listing *)
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ "."

(* The one text form of an instruction, written straight into a buffer:
   listings ([pp], [Prog.pp]) and cache keys both read it. *)
let add_num buf text n =
  Buffer.add_string buf text;
  Buffer.add_string buf (string_of_int n)

let add_operand buf = function
  | Reg r -> add_num buf "r" r
  | Imm i -> add_num buf "#" i
  | Fimm f ->
    Buffer.add_char buf '#';
    Buffer.add_string buf (float_literal f)

let add_addr buf a =
  (match a.base with
   | Abs w -> add_num buf "[" w
   | Frame_base -> Buffer.add_string buf "[fp");
  if a.offset <> 0 then add_num buf "+" a.offset;
  (match a.index with
   | Some op ->
     Buffer.add_char buf '+';
     add_operand buf op
   | None -> ());
  Buffer.add_char buf ']'

(* [name rD, a] *)
let add_unary buf name d a =
  Buffer.add_string buf name;
  add_num buf " r" d;
  Buffer.add_string buf ", ";
  add_operand buf a

(* [name rD, a, b] *)
let add_binary buf name d a b =
  add_unary buf name d a;
  Buffer.add_string buf ", ";
  add_operand buf b

let add_to_buffer buf = function
  | Alu (op, d, a, b) -> add_binary buf (alu_name op) d a b
  | Fpu (op, d, a, b) -> add_binary buf (fpu_name op) d a b
  | Icmp (op, d, a, b) ->
    Buffer.add_string buf "cmp.";
    add_binary buf (cmp_name op) d a b
  | Fcmp (op, d, a, b) ->
    Buffer.add_string buf "fcmp.";
    add_binary buf (cmp_name op) d a b
  | Mov (d, a) -> add_unary buf "mov" d a
  | Itof (d, a) -> add_unary buf "itof" d a
  | Ftoi (d, a) -> add_unary buf "ftoi" d a
  | Load (d, a) ->
    add_num buf "ld r" d;
    Buffer.add_string buf ", ";
    add_addr buf a
  | Store (v, a) ->
    Buffer.add_string buf "st ";
    add_operand buf v;
    Buffer.add_string buf ", ";
    add_addr buf a
  | Call (dst, f, args) ->
    Buffer.add_string buf "call ";
    (match dst with Some d -> add_num buf "r" d; Buffer.add_string buf ", " | None -> ());
    Buffer.add_string buf f;
    Buffer.add_char buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        add_operand buf a)
      args;
    Buffer.add_char buf ')'

let add_terminator_to_buffer buf = function
  | Jump b -> add_num buf "jmp B" b
  | Branch (r, t, f) ->
    add_num buf "br r" r;
    add_num buf " ? B" t;
    add_num buf " : B" f
  | Return None -> Buffer.add_string buf "ret"
  | Return (Some op) ->
    Buffer.add_string buf "ret ";
    add_operand buf op

let pp_with add fmt x =
  let buf = Buffer.create 32 in
  add buf x;
  Format.pp_print_string fmt (Buffer.contents buf)

let pp = pp_with add_to_buffer
let pp_terminator = pp_with add_terminator_to_buffer
