let on = ref false

let clock = Unix.gettimeofday
let origin = ref (clock ())

let engine tid = Span.create ~origin:!origin ~tid ~clock ()

(* The process's span engine (tid 0), plus named tracks: extra engines
   under synthetic tids (>= 1000) that render as their own rows in the
   trace export. While a track is active, [current] points at its engine
   instead of the main one — that is how the daemon lands each request's
   span tree on a per-request row. *)
let track_base = 1000
let main = ref (engine 0)
let current = ref !main
let tracks : (string, int * Span.t) Hashtbl.t = Hashtbl.create 8

let metrics = Metrics.create ()

let enabled () = !on
let enable () = on := true
let disable () = on := false

let reset () =
  origin := clock ();
  main := engine 0;
  current := !main;
  Hashtbl.reset tracks;
  Metrics.reset metrics

let span ?args name f =
  if not !on then f ()
  else begin
    let e = !current in
    Span.enter e ?args name;
    match f () with
    | v ->
      Span.exit_ e;
      v
    | exception ex ->
      Span.exit_ e;
      raise ex
  end

let track_engine name =
  match Hashtbl.find_opt tracks name with
  | Some (_, e) -> e
  | None ->
    let tid = track_base + Hashtbl.length tracks in
    let e = engine tid in
    Hashtbl.add tracks name (tid, e);
    e

let with_track name f =
  if not !on then f ()
  else begin
    let prev = !current in
    current := track_engine name;
    Fun.protect ~finally:(fun () -> current := prev) f
  end

let track_names () =
  Hashtbl.fold (fun name (tid, _) acc -> (tid, name) :: acc) tracks []
  |> List.sort compare

let track_spans name =
  match Hashtbl.find_opt tracks name with
  | Some (_, e) -> Span.completed e
  | None -> []

let timed f =
  let t0 = clock () in
  let v = f () in
  (v, clock () -. t0)

(* the main engine's spans, then each track's in ascending tid order *)
let spans () =
  Hashtbl.fold (fun _ te acc -> te :: acc) tracks [ (0, !main) ]
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  |> List.concat_map (fun (_, e) -> Span.completed e)

let span_totals () = Span.totals (spans ())

let counter ?labels name = Metrics.counter metrics ?labels name
let add ?labels name n = Metrics.add (Metrics.counter metrics ?labels name) n
let set_gauge_int ?labels name v = Metrics.set_gauge_int metrics ?labels name v
let observe ?labels name x = Metrics.observe (Metrics.histogram metrics ?labels name) x

module Span = Span
module Metrics = Metrics
module Sink = Sink
module Trace_event = Trace_event
module Diag = Diag
