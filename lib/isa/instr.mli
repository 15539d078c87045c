(** The E32 instruction set.

    E32 is the repo's stand-in for the Intel i960KB of the paper: a 32-bit
    load/store RISC with integer ALU, FPU, and fixed 4-byte instruction
    encoding. Programs operate over an unbounded file of virtual registers
    (the compiler is register-allocating in spirit: scalars live in
    registers, arrays in memory), a word-addressed data memory, and a
    byte-addressed code space used by the instruction cache model. *)

type reg = int
(** Virtual register number, per-function. Parameters of a function with
    [k] parameters are registers [0 .. k-1]. *)

type operand =
  | Reg of reg
  | Imm of int        (** integer immediate *)
  | Fimm of float     (** floating-point immediate *)

type base =
  | Abs of int        (** absolute word address in the global segment *)
  | Frame_base        (** base of the current activation's frame *)

type addr = {
  base : base;
  offset : int;               (** static word offset *)
  index : operand option;     (** dynamic word offset, if any *)
}
(** Effective word address: [base + offset + index]. *)

type alu_op = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type fpu_op = Fadd | Fsub | Fmul | Fdiv
type cmp_op = Ceq | Cne | Clt | Cle | Cgt | Cge

type t =
  | Alu of alu_op * reg * operand * operand
  | Fpu of fpu_op * reg * operand * operand
  | Icmp of cmp_op * reg * operand * operand  (** integer compare, result 0/1 *)
  | Fcmp of cmp_op * reg * operand * operand  (** float compare, result 0/1 *)
  | Mov of reg * operand
  | Itof of reg * operand                     (** int to float conversion *)
  | Ftoi of reg * operand                     (** float to int (truncate) *)
  | Load of reg * addr
  | Store of operand * addr
  | Call of reg option * string * operand list
      (** call a named function; the result register receives the returned
          value, if any *)

type terminator =
  | Jump of int                (** unconditional jump to a block index *)
  | Branch of reg * int * int  (** if reg <> 0 then first else second *)
  | Return of operand option

val bytes_per_instr : int
(** Fixed encoding size (4), used by the code layout and i-cache model. *)

val defs : t -> reg list
(** Registers written by the instruction. *)

val uses : t -> reg list
(** Registers read by the instruction (including address indices). *)

val is_load : t -> bool
val is_store : t -> bool
val is_call : t -> bool

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the instruction's one text form, e.g. [add r2, r0, #1] or
    [ld r1, [fp+2+r0]]: the form listings print and cache keys hash. *)

val add_terminator_to_buffer : Buffer.t -> terminator -> unit
(** The same for a terminator, e.g. [br r1 ? B2 : B3]. *)

val pp : Format.formatter -> t -> unit
val pp_terminator : Format.formatter -> terminator -> unit
