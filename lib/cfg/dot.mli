(** Graphviz export of CFGs, for documentation and debugging. *)

val cfg_to_dot :
  ?highlight_loops:Loops.loop list ->
  ?block_info:(int -> string list) ->
  ?hot:(int -> bool) ->
  Cfg.t ->
  string
(** [block_info b] contributes extra label lines for block [b] (e.g. WCET
    witness counts and cost bounds); [hot b] fills the node when the block
    lies on the worst-case path. Both default to the bare rendering. *)
