val recommended_domain_count : unit -> int
(** Kept for ledger/, no other caller: the host's recommended domain
    count on OCaml 5, [1] on OCaml 4. *)
