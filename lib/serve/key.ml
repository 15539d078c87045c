module P = Ipet_isa.Prog
module Instr = Ipet_isa.Instr
module Icache = Ipet_machine.Icache

(* v6: a cache entry holds each certificate as its JSON object *)
let schema = 6

let add_cache buf (c : Icache.config) =
  Buffer.add_string buf
    (Printf.sprintf "cache %d %d %d\n" c.Icache.size_bytes c.Icache.line_bytes
       c.Icache.miss_penalty)

let add_cost_model buf ~mach ~cache ~dcache =
  Buffer.add_string buf (Printf.sprintf "mach %s\n" mach);
  add_cache buf cache;
  match dcache with
  | None -> Buffer.add_string buf "dcache none\n"
  | Some d ->
    Buffer.add_string buf "dcache ";
    add_cache buf d

(* the compiled form: every bit the local flow problem is built from,
   each instruction in its listing text, written straight into [buf] *)
let add_func buf (f : P.func) =
  Buffer.add_string buf
    (Printf.sprintf "func %s params=%d frame=%d blocks=%d\n" f.P.name
       f.P.nparams f.P.frame_words (Array.length f.P.blocks));
  Array.iter
    (fun (b : P.block) ->
      Buffer.add_char buf 'B';
      Buffer.add_string buf (string_of_int b.P.id);
      Buffer.add_string buf " line=";
      Buffer.add_string buf (string_of_int b.P.src_line);
      Buffer.add_char buf '\n';
      Array.iter
        (fun i ->
          Buffer.add_string buf "  ";
          Instr.add_to_buffer buf i;
          Buffer.add_char buf '\n')
        b.P.instrs;
      Buffer.add_string buf "  term ";
      Instr.add_terminator_to_buffer buf b.P.term;
      Buffer.add_char buf '\n')
    f.P.blocks

let add_annotations buf fname (annotations : Ipet.Annotation.t list) =
  let mine =
    List.filter (fun (a : Ipet.Annotation.t) -> a.Ipet.Annotation.func = fname)
      annotations
  in
  let render (a : Ipet.Annotation.t) =
    let header =
      match a.Ipet.Annotation.header with
      | `Line l -> Printf.sprintf "line %d" l
      | `Block b -> Printf.sprintf "block %d" b
    in
    Printf.sprintf "loop %s [%d,%d]\n" header a.Ipet.Annotation.lo
      a.Ipet.Annotation.hi
  in
  (* several sound bounds on one loop intersect; their order is immaterial *)
  List.iter (Buffer.add_string buf) (List.sort compare (List.map render mine))

(* the two objectives the unit solves: costs, callee charges and the
   first-miss refinement plan, as the ILP reads them *)
let add_objectives buf ~wcet ~bcet =
  let add label e =
    Buffer.add_string buf label;
    Ipet_lp.Linexpr.fold_terms
      (fun x c () ->
        Buffer.add_char buf ' ';
        Ipet_num.Rat.add_to_buffer buf c;
        Buffer.add_char buf '*';
        Buffer.add_string buf x)
      e ();
    Buffer.add_char buf '\n'
  in
  add "wcet" wcet;
  add "bcet" bcet

let func_bytes ~mach ~annotations ~wcet ~bcet (f : P.func) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "ipet-serve-key v%d unit=func\n" schema);
  Buffer.add_string buf (Printf.sprintf "mach %s\n" mach);
  add_func buf f;
  add_annotations buf f.P.name annotations;
  add_objectives buf ~wcet ~bcet;
  Buffer.contents buf

let func_key ~mach ~annotations ~wcet ~bcet f =
  Digest.to_hex (Digest.string (func_bytes ~mach ~annotations ~wcet ~bcet f))

let program_key ~mach ~cache ~dcache ~first_miss ~root ~annotations
    ~functional (prog : P.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "ipet-serve-key v%d unit=program root=%s first_miss=%b\n"
       schema root first_miss);
  add_cost_model buf ~mach ~cache ~dcache;
  Array.iter
    (fun (f : P.func) ->
      add_func buf f;
      add_annotations buf f.P.name annotations)
    prog.P.funcs;
  List.iter
    (fun (g : P.global) ->
      Buffer.add_string buf
        (Printf.sprintf "global %s %d %d\n" g.P.gname g.P.addr g.P.size_words))
    prog.P.globals;
  List.iter
    (fun c -> Buffer.add_string buf (Format.asprintf "constr %a\n" Ipet.Functional.pp c))
    functional;
  Digest.to_hex (Digest.string (Buffer.contents buf))
