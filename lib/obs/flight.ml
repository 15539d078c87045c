type event = {
  time : float;
  id : string;
  op : string;
  root : string;
  digests : string list;
  units_total : int;
  units_cached : int;
  units_solved : int;
  warm_hits : int;
  pivots : int;
  certs_checked : int;
  certs_rejected : int;
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
  Jsonw.obj
    ([ ("seq", string_of_int seq);
       ("time", Jsonw.num e.time);
       ("id", Jsonw.str e.id);
       ("op", Jsonw.str e.op) ]
     @ (if e.root = "" then [] else [ ("root", Jsonw.str e.root) ])
     @ [ ("digests", Jsonw.arr (List.map Jsonw.str e.digests));
         ("units_total", string_of_int e.units_total);
         ("units_cached", string_of_int e.units_cached);
         ("units_solved", string_of_int e.units_solved);
         ("warm_lp_hits", string_of_int e.warm_hits);
         ("pivots", string_of_int e.pivots);
         ("certs_checked", string_of_int e.certs_checked);
         ("certs_rejected", string_of_int e.certs_rejected);
         ("latency_ms", Jsonw.num e.latency_ms) ]
     @ (match e.error with
        | None -> []
        | Some code -> [ ("error", Jsonw.str code) ]))

let dump t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_json ev);
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
