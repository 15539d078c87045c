module Obs = Ipet_obs.Obs
module Json = Ipet_obs.Json

type config = {
  socket_path : string;
  pool : Ipet_par.Pool.t option;
  cache : Cache.t option;
  default_timeout_ms : int option;
  max_request_bytes : int;
  access_log : string option;
  access_log_cap : int;
  flight_cap : int;
  flight_dump : string option;
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable closing : bool;
}

let stop = ref false

let install_signals () =
  let note _ = stop := true in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle note) with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle note) with Invalid_argument _ -> ()

let close_conn conns conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  conns := List.filter (fun c -> c != conn) !conns

(* blocking write of the whole string; a client that stopped reading hits
   the socket send timeout and is treated as gone *)
let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n = Unix.write fd b off (len - off) in
      if n = 0 then raise Exit;
      go (off + n)
    end
  in
  go 0

let send conns conn line =
  match write_all conn.fd (line ^ "\n") with
  | () -> true
  | exception (Unix.Unix_error _ | Exit) ->
    close_conn conns conn;
    false

(* the complete lines in the [n] bytes just read into [chunk]: only those
   bytes are scanned, a partial line waits in the connection buffer, and a
   line is copied out once, when its newline arrives *)
let take_lines conn chunk n =
  let rec split acc start i =
    if i = n then begin
      Buffer.add_subbytes conn.buf chunk start (n - start);
      List.rev acc
    end
    else if Bytes.get chunk i <> '\n' then split acc start (i + 1)
    else begin
      Buffer.add_subbytes conn.buf chunk start (i - start);
      let line = Buffer.contents conn.buf in
      Buffer.clear conn.buf;
      split (line :: acc) (i + 1) (i + 1)
    end
  in
  split [] 0 0

let protocol_config config =
  let access =
    Option.map
      (fun path -> Access_log.open_ ~path ~cap_bytes:config.access_log_cap)
      config.access_log
  in
  Protocol.make ?cache:config.cache
    ?default_timeout_ms:config.default_timeout_ms ?access
    ~flight_cap:config.flight_cap ()

(* [chunk] is the loop's one read buffer: the loop is single-threaded, and
   [take_lines] copies out everything it keeps *)
let serve_conn config pconfig ~chunk conns conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> close_conn conns conn
  | n ->
    let lines = take_lines conn chunk n in
    if lines = [] && Buffer.length conn.buf > config.max_request_bytes then begin
      let line =
        Json.to_string
          (Protocol.error_response "proto"
             (Printf.sprintf "request exceeds %d bytes" config.max_request_bytes))
      in
      ignore (send conns conn line);
      close_conn conns conn
    end
    else
      List.iter
        (fun line ->
          if not conn.closing then begin
            Obs.add "serve.requests" 1;
            let response, outcome = Protocol.handle_line pconfig line in
            if send conns conn response then
              match outcome with
              | Protocol.Continue -> ()
              | Protocol.Shutdown ->
                conn.closing <- true;
                stop := true
          end)
        lines
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn conns conn

let run config =
  install_signals ();
  stop := false;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
  Unix.listen sock 16;
  let conns : conn list ref = ref [] in
  let pconfig = protocol_config config in
  let chunk = Bytes.create 65536 in
  (* cleanup runs on the graceful path and on an escaping exception alike:
     the flight recorder's whole point is surviving a crash *)
  let cleanup () =
    List.iter
      (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      !conns;
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
    Option.iter Cache.flush config.cache;
    Option.iter
      (fun path -> Flight.write_dump pconfig.Protocol.flight path)
      config.flight_dump;
    Option.iter Access_log.close pconfig.Protocol.access
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  while not !stop do
    let fds = sock :: List.map (fun c -> c.fd) !conns in
    match Unix.select fds [] [] 0.25 with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = sock then begin
            match Unix.accept sock with
            | client, _ ->
              Unix.set_close_on_exec client;
              (try Unix.setsockopt_float client Unix.SO_SNDTIMEO 30.0
               with Unix.Unix_error _ -> ());
              conns :=
                { fd = client; buf = Buffer.create 256; closing = false }
                :: !conns
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> c.fd = fd) !conns with
            | Some conn -> serve_conn config pconfig ~chunk conns conn
            | None -> ())
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
