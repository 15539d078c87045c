module Json = Ipet_obs.Json

type event = {
  time : float;
  id : string;
  op : string;
  root : string;
  digests : string list;
  stats : Incremental.stats;
  latency_ms : float;
  error : string option;
}

type t = {
  ring_cap : int;
  buf : event option array;
  mutable total : int;
}

let create ?(cap = 256) () =
  let cap = max 1 cap in
  { ring_cap = cap; buf = Array.make cap None; total = 0 }

let cap t = t.ring_cap

let record t e =
  t.buf.(t.total mod t.ring_cap) <- Some e;
  t.total <- t.total + 1

let total t = t.total

let recent ?(n = max_int) t =
  let available = min t.total t.ring_cap in
  let n = max 0 (min n available) in
  List.init n (fun i ->
      let seq = t.total - 1 - i in
      match t.buf.(seq mod t.ring_cap) with
      | Some e -> (seq, e)
      | None -> assert false (* slots below [total] are always filled *))

let event_json (seq, e) =
  Json.Obj
    ([ ("seq", Json.Int seq);
       ("time", Json.Float e.time);
       ("id", Json.Str e.id);
       ("op", Json.Str e.op) ]
     @ (if e.root = "" then [] else [ ("root", Json.Str e.root) ])
     @ (("digests", Json.List (List.map (fun d -> Json.Str d) e.digests))
        :: Incremental.stats_fields e.stats)
     @ [ ("latency_ms", Json.Float e.latency_ms) ]
     @ (match e.error with
        | None -> []
        | Some code -> [ ("error", Json.Str code) ]))

let dump t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Json.to_string (event_json ev));
      Buffer.add_char buf '\n')
    (List.rev (recent t));
  Buffer.contents buf

let write_dump t path =
  if total t > 0 then
    try
      let oc = open_out path in
      output_string oc (dump t);
      close_out oc
    with Sys_error _ -> ()
