type dataset = {
  dname : string;
  setup : Ipet_sim.Interp.t -> unit;
  args : Ipet_isa.Value.t list;
}

type t = {
  name : string;
  description : string;
  source : string;
  root : string;
  loop_bounds : Ipet.Annotation.t list;
  functional : Ipet.Functional.t list;
  worst_data : dataset list;
  best_data : dataset list;
}

let line_containing ~source needle =
  let lines = String.split_on_char '\n' source in
  let contains hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn > 0 && go 0
  in
  let hits =
    List.filteri (fun _ line -> contains line) lines
    |> List.length
  in
  if hits = 0 then failwith (Printf.sprintf "marker %S not found" needle);
  if hits > 1 then failwith (Printf.sprintf "marker %S is ambiguous (%d hits)" needle hits);
  let rec find i = function
    | [] -> assert false
    | line :: rest -> if contains line then i else find (i + 1) rest
  in
  find 1 lines

let loc = line_containing

let source_lines t =
  String.split_on_char '\n' t.source
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let no_setup (_ : Ipet_sim.Interp.t) = ()

let dataset ?(setup = no_setup) ?(args = []) dname = { dname; setup; args }

(* memo shared by every caller; compilation is deterministic *)
let cache_table : (string, Ipet_lang.Compile.t) Hashtbl.t = Hashtbl.create 16

let compile t =
  match Hashtbl.find_opt cache_table t.name with
  | Some c -> c
  | None ->
    let c =
      try Ipet_lang.Frontend.compile_string_exn t.source with
      | Failure msg -> failwith (Printf.sprintf "benchmark %s: %s" t.name msg)
    in
    Hashtbl.replace cache_table t.name c;
    c

let spec ?mach ?cache ?dcache t =
  let compiled = compile t in
  Ipet.Analysis.spec ?mach ?cache ?dcache ~loop_bounds:t.loop_bounds
    ~functional:t.functional ~root:t.root compiled.Ipet_lang.Compile.prog

let annotation_text t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "root %s\n" t.root;
  List.iter
    (fun { Ipet.Annotation.func; header; lo; hi } ->
      match header with
      | `Line l -> Printf.bprintf buf "loop %s %d %d %d\n" func l lo hi
      | `Block b ->
        Printf.bprintf buf "# block-addressed bound skipped: %s B%d [%d,%d]\n"
          func b lo hi)
    t.loop_bounds;
  (match List.length t.functional with
   | 0 -> ()
   | n ->
     Printf.bprintf buf
       "# %d functionality constraint(s) omitted (no textual form)\n" n);
  Buffer.contents buf
