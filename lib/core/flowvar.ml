type ctx = string

let root_ctx = ""

let site_label ~caller ~block ~occurrence =
  Printf.sprintf "%s.B%d.%d" caller block occurrence

let extend_ctx ctx ~site = if ctx = "" then site else ctx ^ "/" ^ site

type t =
  | Block of { ctx : ctx; func : string; block : int }
  | Edge of { ctx : ctx; func : string; src : int; dst : int }
  | Entry of { ctx : ctx; func : string }
  | Exit of { ctx : ctx; func : string; block : int }
  | Fedge of { ctx : ctx; func : string; block : int; occurrence : int }

let with_ctx ctx s = if ctx = "" then s else s ^ "@" ^ ctx

let name = function
  | Block { ctx; func; block } -> with_ctx ctx (Printf.sprintf "x:%s:%d" func block)
  | Edge { ctx; func; src; dst } ->
    with_ctx ctx (Printf.sprintf "d:%s:%d:%d" func src dst)
  | Entry { ctx; func } -> with_ctx ctx (Printf.sprintf "d:%s:in" func)
  | Exit { ctx; func; block } -> with_ctx ctx (Printf.sprintf "d:%s:out:%d" func block)
  | Fedge { ctx; func; block; occurrence } ->
    with_ctx ctx (Printf.sprintf "f:%s:%d:%d" func block occurrence)

let var v = Ipet_lp.Linexpr.var (name v)
