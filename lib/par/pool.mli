(** Kept for ledger/, no other caller: a token the ledger still passes
    around. The analysis is sequential and ignores it. *)

type t

val create : jobs:int -> t
