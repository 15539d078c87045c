module Obs = Ipet_obs.Obs
module Json = Ipet_obs.Json

(* [saved]: the index file holds this entry's current [seq] *)
type entry = { mutable size : int; mutable seq : int; mutable saved : bool }

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  eviction_bytes : int;
}

type t = {
  dir : string;
  cap_bytes : int;
  table : (string, entry) Hashtbl.t;
  mutable next_seq : int;
  mutable unsaved : string list;  (* keys whose entry's [saved] went false *)
  mutable lines : int;
      (* entry lines in the index file; -1 until this process rewrote it *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable eviction_bytes : int;
}

let index_magic = "cinderella-cache-index v1"

let entry_path t key = Filename.concat t.dir (key ^ ".json")
let index_path t = Filename.concat t.dir "index"

let is_key key =
  String.length key = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       key

let mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then
      (try Unix.mkdir parent 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

(* a writer that crashed between open and rename leaves a stale "*.tmp"
   behind; it is never a valid entry, so opening the cache sweeps them *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | files ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      files
  | exception Sys_error _ -> ()

(* atomic-enough write: temp file in the same directory, then rename; a
   write that fails closes and removes its temp file *)
let write_file path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc content;
     close_out oc
   with
   | () -> ()
   | exception (Sys_error _ as e) ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* The index's recency first; then every entry file it does not list,
   oldest mtime first. The index is a log: a put appends its key's new
   seq, so a key may be listed more than once and its highest seq is its
   recency, and a writer that died mid-append leaves a last line without
   its newline, which is skipped. An unlisted file is one a missing or
   damaged index lost, or one whose writer died after the rename but
   before the index line; adopting it keeps it under the cap instead of
   orphaned *)
let load_index t =
  let adopt key seq =
    (match Hashtbl.find_opt t.table key with
     | Some e -> e.seq <- max e.seq seq
     | None ->
       match Unix.stat (entry_path t key) with
       | { Unix.st_size; _ } ->
         Hashtbl.replace t.table key { size = st_size; seq; saved = true };
         t.bytes <- t.bytes + st_size
       | exception Unix.Unix_error _ -> ());
    if seq >= t.next_seq then t.next_seq <- seq + 1
  in
  (match read_file (index_path t) with
   | content ->
     (match String.split_on_char '\n' content with
      | magic :: lines when magic = index_magic ->
        (* the piece after the last newline is empty, or a torn line *)
        let complete = List.length lines - 1 in
        List.iteri
          (fun i line ->
            match String.split_on_char ' ' line with
            | [ key; seq ] when i < complete && is_key key ->
              Option.iter (adopt key) (int_of_string_opt seq)
            | _ -> ())
          lines
      | _ -> ())
   | exception Sys_error _ -> ());
  match Sys.readdir t.dir with
  | files ->
    Array.to_list files
    |> List.filter_map (fun f ->
      if Filename.check_suffix f ".json" then begin
        let key = Filename.chop_suffix f ".json" in
        if is_key key && not (Hashtbl.mem t.table key) then
          match Unix.stat (Filename.concat t.dir f) with
          | st -> Some (st.Unix.st_mtime, key)
          | exception Unix.Unix_error _ -> None
        else None
      end
      else None)
    |> List.sort compare
    |> List.iter (fun (_, key) -> adopt key t.next_seq)
  | exception Sys_error _ -> ()

let create ~dir ~cap_bytes =
  mkdir_p dir;
  sweep_tmp dir;
  let t =
    { dir;
      cap_bytes;
      table = Hashtbl.create 64;
      next_seq = 0;
      unsaved = [];
      lines = -1;
      bytes = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      eviction_bytes = 0 }
  in
  load_index t;
  t

let add_line buf key e =
  Buffer.add_string buf key;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int e.seq);
  Buffer.add_char buf '\n';
  e.saved <- true

(* rewrite the index: one line per entry *)
let flush t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf index_magic;
  Buffer.add_char buf '\n';
  Hashtbl.iter (add_line buf) t.table;
  write_file (index_path t) (Buffer.contents buf);
  t.unsaved <- [];
  t.lines <- Hashtbl.length t.table

(* append the recency of every entry touched since the index last heard
   of it; rewrite instead when this process has not written the index yet
   (it may end in a torn line) or the log has grown past twice the
   entries *)
let save t =
  let buf = Buffer.create 128 in
  let n = ref 0 in
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.table key with
      | Some e when not e.saved -> add_line buf key e; incr n
      | Some _ | None -> ())
    t.unsaved;
  t.unsaved <- [];
  let lines = t.lines + !n in
  if t.lines < 0 || lines > 2 * Hashtbl.length t.table then flush t
  else
    match
      open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644
        (index_path t)
    with
    | oc ->
      (* until the append completes, the index may end in a torn line *)
      t.lines <- -1;
      Buffer.output_buffer oc buf;
      close_out oc;
      t.lines <- lines
    | exception Sys_error _ -> flush t

let touch t key e =
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if e.saved then begin
    e.saved <- false;
    t.unsaved <- key :: t.unsaved
  end

let drop t key e =
  Hashtbl.remove t.table key;
  t.bytes <- t.bytes - e.size;
  try Sys.remove (entry_path t key) with Sys_error _ -> ()

let remove t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    drop t key e;
    flush t
  | None -> ()

let miss t =
  t.misses <- t.misses + 1;
  Obs.add "serve.cache.misses" 1;
  None

let get t key =
  match Hashtbl.find_opt t.table key with
  | None -> miss t
  | Some e ->
    (match Json.parse (read_file (entry_path t key)) with
     | Ok v ->
       touch t key e;
       t.hits <- t.hits + 1;
       Obs.add "serve.cache.hits" 1;
       Some v
     | Error _ | exception Sys_error _ ->
       (* damaged or vanished entry: self-heal to a miss *)
       drop t key e;
       miss t)

let evict_over_cap t ~keep =
  while
    t.bytes > t.cap_bytes
    && Hashtbl.length t.table > if Hashtbl.mem t.table keep then 1 else 0
  do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          if key = keep then acc
          else
            match acc with
            | Some (_, best) when best.seq <= e.seq -> acc
            | Some _ | None -> Some (key, e))
        t.table None
    in
    match victim with
    | None -> t.bytes <- min t.bytes t.cap_bytes (* only [keep] left *)
    | Some (key, e) ->
      let freed = e.size in
      drop t key e;
      t.evictions <- t.evictions + 1;
      t.eviction_bytes <- t.eviction_bytes + freed;
      Obs.add "serve.cache.evictions" 1;
      Obs.add "serve.cache.eviction_bytes" freed
  done

(* A failed write (a missing or full directory) loses only what the cache
   would have saved: an entry whose file was not written stays out of the
   table, so a later request misses and re-solves it, and an index that
   was not written is rebuilt from the entry files on the next open. *)
let put t key value =
  let content = Json.to_string value in
  let size = String.length content in
  try
    match Hashtbl.find_opt t.table key with
    | Some e ->
      (* same key, same content: refresh recency only *)
      touch t key e;
      save t
    | None ->
      write_file (entry_path t key) content;
      let e = { size; seq = 0; saved = true } in
      touch t key e;
      Hashtbl.replace t.table key e;
      t.bytes <- t.bytes + size;
      let evictions = t.evictions in
      evict_over_cap t ~keep:key;
      if t.evictions > evictions then flush t else save t
  with Sys_error _ -> ()

let stats t : stats =
  { entries = Hashtbl.length t.table;
    bytes = t.bytes;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    eviction_bytes = t.eviction_bytes }

let dir t = t.dir
let cap_bytes t = t.cap_bytes
