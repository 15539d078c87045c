(** The analysis daemon: a single-threaded accept/select loop over a
    unix-domain socket, speaking {!Protocol} version 1.

    Requests on one connection are served in order; connections are
    multiplexed, so a slow analysis on one connection delays others. A
    malformed or failing request produces an error response on its own
    connection and nothing else — the daemon never dies with a client.

    Shutdown is graceful on SIGINT, SIGTERM or a [shutdown] request:
    in-flight responses are written, the socket file is unlinked, the
    cache index is flushed, the flight recorder is dumped (when
    [flight_dump] is set) and the access log is closed, and [run] returns
    (letting the caller's [at_exit] observability sinks render). The same
    cleanup runs when an exception escapes the serve loop — the flight
    dump exists precisely to survive a crash. SIGPIPE is ignored; a
    client that disappears mid-response just loses the response. *)

type config = {
  socket_path : string;
  pool : Ipet_par.Pool.t option;
      (** kept for ledger/, no other caller; accepted and ignored *)
  cache : Cache.t option;
  default_timeout_ms : int option;
  max_request_bytes : int;
      (** a connection whose pending line exceeds this is sent a [proto]
          error and closed (guards daemon memory against a stuck or
          malicious writer) *)
  access_log : string option;
      (** path of the size-rotated JSONL access log; [None] disables it *)
  access_log_cap : int;  (** rotation threshold in bytes *)
  flight_cap : int;      (** flight-recorder ring capacity (events) *)
  flight_dump : string option;
      (** where the flight recorder is dumped (JSONL, oldest first) on
          shutdown or crash; [None] disables the dump *)
}

val run : config -> unit
(** Bind [socket_path] (replacing a stale socket file), serve until told to
    stop, clean up. @raise Unix.Unix_error if the socket cannot be bound. *)
