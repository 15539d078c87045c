(** Text syntax for functionality constraints and annotation files, used by
    the cinderella CLI.

    Constraint grammar (within a function scope):
    {v
    constraint ::= conj { '|' conj }
    conj       ::= atom { '&' atom }
    atom       ::= '(' constraint ')'  |  lin rel lin
    rel        ::= '='  |  '<='  |  '>='
    lin        ::= ['-'] term { ('+'|'-') term }
    term       ::= INT  |  [INT] ref
    ref        ::= 'x' INT        block by id (as printed in the listing)
                |  'x' '@' INT    block by source line
    v}

    Every [INT] (a coefficient, a constant, a block id or a line) is at
    most 10{^18}, and the [INT]s of one side of a relation add up to at
    most 10{^18}: within those bounds the integer arithmetic of
    {!Functional} on a parsed constraint cannot overflow. Input beyond
    them is a {!Parse_error} that names the literal or the constraint.

    Annotation files are line oriented; [#] starts a comment:
    {v
    root <function>
    loop <function> <header-line> <lo> <hi>
    constr <function> <constraint>
    v} *)

exception Parse_error of string

val parse_constraint : func:string -> string -> Functional.t
(** @raise Parse_error on malformed input. *)

type annotation_file = {
  root : string option;
  loop_bounds : Annotation.t list;
  functional : Functional.t list;
}

val parse_annotation_text : string -> annotation_file
(** @raise Parse_error on malformed input (with the offending line). *)
