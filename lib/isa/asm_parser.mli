(** Parser for the textual E32 assembly emitted by {!Prog.pp}.

    The paper's cinderella "first reads the executable code for the
    program"; this module provides the equivalent entry point — an E32
    program can be analyzed from an assembly listing alone, without MC
    source. The format round-trips: [parse (Format.asprintf "%a" Prog.pp p)]
    reconstructs [p].

    {v
    .global name @ addr (size words)
    func(nparams params, frame words frame words):
    B0:   ; line 12            -- the line comment is optional
      add r1, r2, #3
      ld r4, [8+r2]            -- absolute base, optional +offset, +index
      st r4, [fp+2+r5]         -- frame base
      call r0, callee(r1, #2)  -- result register optional
      br r3 ? B1 : B2
    B1:
      ret r1
    v} *)

exception Error of string * int  (** message, line *)

val parse : string -> Prog.t
(** @raise Error on malformed input. *)
