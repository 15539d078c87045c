(* Order statistics, the tail-percentile rule, self values over span
   trees and the regression-bound check. Pure, so the unit tests pin them
   without running a workload. *)

module Span = Ipet_obs.Span

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest sample with at least p% of the samples at or
   below it *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n /. 100.))))

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n p - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let tail_ladder = [ 99.9; 99.5; 99.; 98.; 95.; 90.; 75.; 50. ]

let tail_percentile n =
  List.find_opt (fun p -> n - rank ~n p >= 10) tail_ladder

let label p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p else Printf.sprintf "p%g" p

type summary = {
  n : int;
  p50 : float;
  tail : float;
  tail_label : string;  (* "p99", ...; "max" when fewer than 20 samples *)
}

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  let tail, tail_label =
    match tail_percentile n with
    | Some p -> (percentile a p, label p)
    | None -> (a.(n - 1), "max")
  in
  { n; p50 = percentile a 50.; tail; tail_label }

(* Python's statistics.quantiles(xs, n=4), default 'exclusive' method *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.)
    [ 1; 2; 3 ]

(* inter-quartile distance as a share of the median *)
let spread xs =
  match quartiles xs with
  | [ q1; _; q3 ] -> (q3 -. q1) /. median xs
  | _ -> assert false

type better = Lower | Higher

let regressed ~better ~bound ~base ~next =
  let a = median base and b = median next in
  match better with
  | Lower -> b -. a > bound *. a
  | Higher -> a -. b > bound *. a

(* Spans arrive in completion order, children before their parent, as
   {!Span.completed} returns them. A span's self value is its own value
   minus that of its direct children, floored at zero. *)
let self_values ~value spans =
  let below = Hashtbl.create 8 in
  let take d =
    let v = Option.value ~default:0. (Hashtbl.find_opt below d) in
    Hashtbl.remove below d;
    v
  in
  List.map
    (fun (s : Span.completed) ->
      let v = value s in
      let children = take (s.Span.depth + 1) in
      Hashtbl.replace below s.Span.depth
        (v +. Option.value ~default:0. (Hashtbl.find_opt below s.Span.depth));
      (s, Float.max 0. (v -. children)))
    spans

let duration_us (s : Span.completed) = float_of_int s.Span.dur_us

(* One entry per top-level span: the span and the self values of it and
   of every descendant, summed by span name. *)
let per_root ~value spans =
  let pending = Hashtbl.create 16 in
  List.fold_left
    (fun acc ((s : Span.completed), v) ->
      Hashtbl.replace pending s.Span.name
        (v +. Option.value ~default:0. (Hashtbl.find_opt pending s.Span.name));
      if s.Span.depth > 0 then acc
      else begin
        let by_name =
          Hashtbl.fold (fun k v l -> (k, v) :: l) pending []
          |> List.sort compare
        in
        Hashtbl.reset pending;
        (s, by_name) :: acc
      end)
    []
    (self_values ~value spans)
  |> List.rev
