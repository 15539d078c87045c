(** Names of the ILP flow variables.

    The paper attaches [x_i] to basic blocks, [d_i] to CFG edges and [f_i]
    to call edges. Because caller/callee constraints like [x8.f1] need
    per-call-site instances of the callee's variables, every variable is
    additionally qualified by a {e context}: the chain of call sites from
    the analysis root (virtual inlining). *)

type ctx = string
(** Context key: [""] for the root instance; extended by {!extend_ctx} for
    each call site on the path. *)

val root_ctx : ctx

val site_label : caller:string -> block:int -> occurrence:int -> string

val extend_ctx : ctx -> site:string -> ctx

type t =
  | Block of { ctx : ctx; func : string; block : int }
  | Edge of { ctx : ctx; func : string; src : int; dst : int }
  | Entry of { ctx : ctx; func : string }  (** virtual edge into block 0 *)
  | Exit of { ctx : ctx; func : string; block : int }
      (** virtual edge out of a returning block *)
  | Fedge of { ctx : ctx; func : string; block : int; occurrence : int }

val name : t -> string
(** Unique LP variable name. *)

val var : t -> Ipet_lp.Linexpr.t
(** The variable as a linear expression. *)
