type completed = {
  name : string;
  args : (string * string) list;
  start_us : int;
  dur_us : int;
  depth : int;
  tid : int;
}

type open_span = { o_name : string; o_args : (string * string) list; o_start : int }

type t = {
  clock : unit -> float;
  mutable origin : float;
  mutable last_us : int;  (* highest timestamp handed out; enforces monotony *)
  mutable stack : open_span list;
  mutable completed_rev : completed list;
  tid : int;
}

let create ?origin ?(tid = 0) ~clock () =
  let origin = match origin with Some o -> o | None -> clock () in
  { clock; origin; last_us = 0; stack = []; completed_rev = []; tid }

let origin t = t.origin

let reset ?origin t =
  t.origin <- (match origin with Some o -> o | None -> t.clock ());
  t.last_us <- 0;
  t.stack <- [];
  t.completed_rev <- []

let now_us t =
  let raw = int_of_float ((t.clock () -. t.origin) *. 1e6) in
  let us = if raw > t.last_us then raw else t.last_us in
  t.last_us <- us;
  us

let enter t ?(args = []) name =
  t.stack <- { o_name = name; o_args = args; o_start = now_us t } :: t.stack

let exit_ t =
  match t.stack with
  | [] -> ()
  | o :: rest ->
    let stop = now_us t in
    t.stack <- rest;
    t.completed_rev <-
      { name = o.o_name;
        args = o.o_args;
        start_us = o.o_start;
        dur_us = stop - o.o_start;
        depth = List.length rest;
        tid = t.tid }
      :: t.completed_rev

let depth t = List.length t.stack

let completed t = List.rev t.completed_rev

let totals spans =
  let table = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let count, us = Option.value ~default:(0, 0) (Hashtbl.find_opt table s.name) in
      Hashtbl.replace table s.name (count + 1, us + s.dur_us))
    spans;
  Hashtbl.fold (fun name acc l -> (name, acc) :: l) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json s =
  Json.Obj
    ([ ("name", Json.Str s.name);
       ("start_us", Json.Int s.start_us);
       ("dur_us", Json.Int s.dur_us);
       ("depth", Json.Int s.depth) ]
     @
     if s.args = [] then []
     else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.args)) ])

let of_json j =
  let int name = Option.bind (Json.member name j) Json.to_int in
  match
    ( Option.bind (Json.member "name" j) Json.to_str,
      int "start_us", int "dur_us", int "depth" )
  with
  | Some name, Some start_us, Some dur_us, Some depth ->
    let args =
      match Json.member "args" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
          fields
      | _ -> []
    in
    Some { name; args; start_us; dur_us; depth; tid = 0 }
  | _ -> None
