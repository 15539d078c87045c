(** Call graph over an E32 program.

    Call sites are the f-edges of the paper (Fig. 4). The analysis requires
    a recursion-free program (Section II's decidability restriction), which
    {!check_acyclic} enforces. *)

type site = {
  caller : string;
  block : int;        (** block containing the call instruction *)
  occurrence : int;   (** 0-based occurrence of a call within that block *)
  callee : string;
}

type t

val of_program : Ipet_isa.Prog.t -> t

val sites : t -> site list
(** Every call site in the program, in program order. *)

val sites_of_caller : t -> string -> site list
val callees : t -> string -> string list

exception Recursive of string list
(** One recursive cycle of function names, its first name repeated last. *)

val check_acyclic : t -> (unit, string list) result
(** [Error cycle] reports one recursive cycle of function names. *)

val topological_order : t -> string list
(** Callees before callers.
    @raise Recursive on recursive programs. *)
