module Prog = Ipet_isa.Prog
module Instr = Ipet_isa.Instr

type site = { caller : string; block : int; occurrence : int; callee : string }

type t = { program : Prog.t; all_sites : site list }

let of_program (program : Prog.t) =
  let all_sites =
    Array.to_list program.Prog.funcs
    |> List.concat_map (fun (f : Prog.func) ->
      Array.to_list f.Prog.blocks
      |> List.concat_map (fun (b : Prog.block) ->
        Prog.calls_of_block b
        |> List.mapi (fun occurrence callee ->
          { caller = f.Prog.name; block = b.Prog.id; occurrence; callee })))
  in
  { program; all_sites }

let sites t = t.all_sites

let sites_of_caller t name = List.filter (fun s -> s.caller = name) t.all_sites

let callees t name =
  sites_of_caller t name |> List.map (fun s -> s.callee) |> List.sort_uniq compare

exception Recursive of string list

let check_acyclic t =
  (* DFS with colors; on a back edge reconstruct the cycle from the stack *)
  let color = Hashtbl.create 16 in
  let cycle = ref None in
  let rec visit stack name =
    match Hashtbl.find_opt color name with
    | Some `Done -> ()
    | Some `Active ->
      if !cycle = None then begin
        let rec take acc = function
          | [] -> acc
          | x :: _ when x = name -> x :: acc
          | x :: rest -> take (x :: acc) rest
        in
        cycle := Some (take [ name ] stack)
      end
    | None ->
      Hashtbl.replace color name `Active;
      List.iter (visit (name :: stack)) (callees t name);
      Hashtbl.replace color name `Done
  in
  Array.iter (fun (f : Prog.func) -> visit [] f.Prog.name) t.program.Prog.funcs;
  match !cycle with Some c -> Error c | None -> Ok ()

let topological_order t =
  (match check_acyclic t with
   | Ok () -> ()
   | Error cycle -> raise (Recursive cycle));
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      List.iter visit (callees t name);
      order := name :: !order
    end
  in
  Array.iter (fun (f : Prog.func) -> visit f.Prog.name) t.program.Prog.funcs;
  List.rev !order
