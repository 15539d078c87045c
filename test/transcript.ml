(* Replays a protocol transcript: every request line of FILE goes through
   [Protocol.handle_line] on one fresh config, and is printed as "> line"
   followed by "< response", with the response's volatile values masked,
   so that a dune [diff] rule pins what the daemon answers. A line that is
   blank or starts with '#' is copied as it is; a shutdown response is
   followed by "= shutdown" and ends the replay, as it ends the server.

   Usage: transcript.exe [--cache] FILE. With [--cache] the config gets a
   cache of 1 MiB in a fresh temporary directory, removed on exit. *)

module J = Ipet_obs.Json
module Cache = Ipet_serve.Cache
module Protocol = Ipet_serve.Protocol

(* wall-clock values, and the cache's temporary path; counts stay *)
let masked =
  [ "wall_ms"; "time"; "latency_ms"; "sum"; "min"; "max"; "p50"; "p90";
    "p99"; "total_us"; "dir" ]

(* a Prometheus sample of a quantile or a [_sum] is a time *)
let mask_sample line =
  match String.rindex_opt line ' ' with
  | Some i when line.[0] <> '#' ->
    let name = String.sub line 0 i in
    (* the family, then each label *)
    let parts =
      List.concat_map (String.split_on_char '{') (String.split_on_char ',' name)
    in
    if List.exists (String.starts_with ~prefix:"quantile=") parts
       || String.ends_with ~suffix:"_sum" (List.hd parts)
    then name ^ " *"
    else line
  | _ -> line

let rec mask = function
  | J.Obj fields ->
    J.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "prometheus", J.Str text ->
             ( k,
               J.Str
                 (String.split_on_char '\n' text
                 |> List.map mask_sample |> String.concat "\n") )
           | _ when List.mem k masked -> (k, J.Str "*")
           | _ -> (k, mask v))
         fields)
  | J.List l -> J.List (List.map mask l)
  | v -> v

(* a cache directory holds only files *)
let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  let cache, file =
    match Array.to_list Sys.argv with
    | [ _; "--cache"; file ] ->
      let dir = Filename.temp_dir "transcript" "" in
      at_exit (fun () -> if Sys.file_exists dir then remove_dir dir);
      (Some (Cache.create ~dir ~cap_bytes:(1024 * 1024)), file)
    | [ _; file ] -> (None, file)
    | _ ->
      prerr_endline "usage: transcript.exe [--cache] FILE";
      exit 2
  in
  let config = Protocol.make ?cache () in
  let rec replay = function
    | [] -> ()
    | line :: rest when line = "" || line.[0] = '#' ->
      print_endline line;
      replay rest
    | line :: rest ->
      let response, outcome = Protocol.handle_line config line in
      print_endline ("> " ^ line);
      (match J.parse response with
       | Ok j -> print_endline ("< " ^ J.to_string (mask j))
       | Error msg -> print_endline ("< unparsable response: " ^ msg));
      if outcome = Protocol.Shutdown then print_endline "= shutdown"
      else replay rest
  in
  replay (In_channel.with_open_bin file In_channel.input_lines)
