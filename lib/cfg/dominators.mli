(** Dominator computation (Cooper–Harvey–Kennedy iterative algorithm).

    Needed to identify back edges and natural loops, which is how the tool
    finds the loops the user must annotate with bounds. *)

type t

val compute : Cfg.t -> t

val idom : t -> int -> int
(** Immediate dominator of a block; the entry is its own idom. Unreachable
    blocks report themselves. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does [a] dominate [b]? Every reachable block is
    dominated by itself and the entry. *)
