(** The historical dense-tableau two-phase primal simplex, kept verbatim
    as a benchmark baseline and differential oracle for {!Revised}. The
    production entry point is {!Simplex.solve}, which runs the revised
    sparse solver; this module exists so `bench lp` can measure
    dense-vs-revised wall times on identical instances and so tests can
    assert the two produce identical vertices, not just values. *)

open Ipet_num

type result =
  | Optimal of { value : Rat.t; assignment : (string * Rat.t) list }
  | Infeasible
  | Unbounded

val solve : ?pivots:int ref -> Lp_problem.t -> result
(** Its structural columns are {!Lp_problem.variables} of the problem, the
    objective's included; [pivots] is incremented by the tableau pivots
    performed. *)
