(* The ledger's own span engine. Spans wrap calls into each library's
   public functions from the outside, so the programs under measurement
   carry no benchmark-specific instrumentation. Every completed span
   records the minor-heap words allocated inside it as the ["minor_words"]
   argument, which also shows up in the exported trace. *)

module Span = Ipet_obs.Span

type t = {
  origin : float;
  mutable depth : int;
  mutable completed : Span.completed list;  (* newest first *)
}

let create () = { origin = Unix.gettimeofday (); depth = 0; completed = [] }

let us t s = int_of_float ((s -. t.origin) *. 1e6)

let record t ~name ~args ~start_us ~dur_us ~depth =
  t.completed <-
    { Span.name;
      args;
      start_us;
      dur_us;
      depth;
      tid = 0 }
    :: t.completed

let span t name f =
  let depth = t.depth in
  t.depth <- depth + 1;
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      let words = Gc.minor_words () -. w0 in
      t.depth <- depth;
      let start_us = us t start in
      record t ~name ~args:[ ("minor_words", Printf.sprintf "%.0f" words) ]
        ~start_us ~dur_us:(us t stop - start_us) ~depth)

(* Spans the libraries already emit through {!Ipet_obs.Obs}, recorded
   while the innermost open span ran: [since] is when the Obs engine was
   reset, i.e. its time origin. Only those [rename] maps to a layer
   are kept; they become children of the open span, without an allocation
   count (the open span's count includes theirs). *)
let adopt t ~since ~rename (spans : Span.completed list) =
  List.iter
    (fun (s : Span.completed) ->
      match rename s.Span.name with
      | None -> ()
      | Some name ->
        record t ~name ~args:[] ~start_us:(us t since + s.Span.start_us)
          ~dur_us:s.Span.dur_us ~depth:(t.depth + s.Span.depth))
    spans

let completed t = List.rev t.completed

let minor_words (s : Span.completed) =
  match List.assoc_opt "minor_words" s.Span.args with
  | Some w -> float_of_string w
  | None -> 0.
