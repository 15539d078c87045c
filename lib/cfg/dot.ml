module Prog = Ipet_isa.Prog

let escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cfg_to_dot ?(highlight_loops = []) ?block_info ?hot cfg =
  let buf = Buffer.create 256 in
  let func = Cfg.func cfg in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" func.Prog.name);
  Buffer.add_string buf "  node [shape=box fontname=monospace];\n";
  for b = 0 to Cfg.nblocks cfg - 1 do
    let in_header =
      List.exists (fun (l : Loops.loop) -> l.Loops.header = b) highlight_loops
    in
    let is_hot = match hot with Some f -> f b | None -> false in
    let line = func.Prog.blocks.(b).Prog.src_line in
    let label =
      if line > 0 then Printf.sprintf "B%d\\nline %d" b line
      else Printf.sprintf "B%d" b
    in
    let label =
      match block_info with
      | None -> label
      | Some info ->
        List.fold_left
          (fun acc l -> acc ^ "\\n" ^ escape_label l)
          label (info b)
    in
    let style =
      if is_hot then " style=filled fillcolor=lightsalmon"
      else if in_header then " style=filled fillcolor=lightblue"
      else ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  B%d [label=\"%s\"%s];\n" b label style)
  done;
  List.iter
    (fun { Cfg.src; dst } ->
      let back =
        List.exists
          (fun (l : Loops.loop) -> List.mem (src, dst) l.Loops.back_edges)
          highlight_loops
      in
      Buffer.add_string buf
        (Printf.sprintf "  B%d -> B%d%s;\n" src dst
           (if back then " [color=red]" else "")))
    (Cfg.edges cfg);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
