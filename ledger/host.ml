(* The machine and build a ledger row was measured on. *)

module J = Ipet_serve.Json

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let cpuinfo_field key =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = key ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | Some _ | None -> None)
    (read_lines "/proc/cpuinfo")

(* The commit of a git checkout, read from the files so that no process is
   started; absent in an exported tree. *)
let commit () =
  match read_lines ".git/HEAD" with
  | [ head ] ->
    let prefix = "ref: " in
    if String.starts_with ~prefix head then begin
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_lines (Filename.concat ".git" ref_) with
      | [ sha ] -> Some sha
      | _ ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ sha; r ] when r = ref_ -> Some sha
            | _ -> None)
          (read_lines ".git/packed-refs")
    end
    else Some head
  | _ -> None

let json ~seed =
  J.Obj
    [ ("ocaml", J.Str Sys.ocaml_version);
      ("nproc", J.Int (List.length (cpuinfo_field "processor")));
      ( "domains_available",
        J.Int (Ipet_par.Par_compat.recommended_domain_count ()) );
      ( "cpu",
        J.Str (match cpuinfo_field "model name" with m :: _ -> m | [] -> "unknown") );
      ("seed", J.Int seed);
      ("commit", match commit () with Some c -> J.Str c | None -> J.Null) ]

(* peak resident set (VmHWM) of a live process, in MiB *)
let peak_rss_mb pid =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
        (try Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         with Scanf.Scan_failure _ | End_of_file -> None)
      | _ -> None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))
  |> Option.value ~default:0.
