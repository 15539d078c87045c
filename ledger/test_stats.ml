module Span = Ipet_obs.Span

let floats = Alcotest.(list (float 1e-9))

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let a = Stats.sorted (range 10) in
  Alcotest.(check (float 0.)) "p50" 5. (Stats.percentile a 50.);
  Alcotest.(check (float 0.)) "p90" 9. (Stats.percentile a 90.);
  Alcotest.(check (float 0.)) "p100" 10. (Stats.percentile a 100.);
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (Stats.percentile a 0.);
  Alcotest.(check (float 0.)) "median, even n" 5.5 (Stats.median (range 10));
  Alcotest.(check (float 0.)) "median, odd n" 3. (Stats.median [ 5.; 1.; 3. ])

(* the highest percentile with at least ten samples beyond it *)
let test_tail_rule () =
  let label n =
    match Stats.tail_percentile n with Some p -> Stats.label p | None -> "none"
  in
  Alcotest.(check string) "n=2000" "p99.5" (label 2000);
  Alcotest.(check string) "n=1040" "p99" (label 1040);
  Alcotest.(check string) "n=1000" "p99" (label 1000);
  Alcotest.(check string) "n=999" "p98" (label 999);
  Alcotest.(check string) "n=200" "p95" (label 200);
  Alcotest.(check string) "n=100" "p90" (label 100);
  Alcotest.(check string) "n=40" "p75" (label 40);
  Alcotest.(check string) "n=39" "p50" (label 39);
  Alcotest.(check string) "n=20" "p50" (label 20);
  Alcotest.(check string) "n=19" "none" (label 19);
  let s = Stats.summarize (List.rev (range 1040)) in
  Alcotest.(check (float 0.)) "p99 of 1..1040" 1030. s.Stats.tail;
  Alcotest.(check int) "ten samples beyond" 10 (1040 - int_of_float s.Stats.tail);
  Alcotest.(check string) "label" "p99" s.Stats.tail_label;
  Alcotest.(check string) "too few samples" "max" (Stats.summarize (range 5)).Stats.tail_label

(* values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (Stats.quartiles (range 10));
  Alcotest.check floats "1..4" [ 1.25; 2.5; 3.75 ] (Stats.quartiles (range 4));
  Alcotest.check floats "two samples" [ 0.75; 1.5; 2.25 ] (Stats.quartiles [ 2.; 1. ]);
  Alcotest.(check (float 1e-9)) "spread of 1..10" (5.5 /. 5.5) (Stats.spread (range 10))

let span ~name ~start ~stop ~depth =
  { Span.name; args = []; start_us = start; dur_us = stop - start; depth; tid = 0 }

(* op [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25); a
   second op [100, 130) holds another a [105, 125). Completion order puts
   children first. *)
let tree =
  [ span ~name:"c" ~start:15 ~stop:25 ~depth:2;
    span ~name:"a" ~start:10 ~stop:40 ~depth:1;
    span ~name:"b" ~start:50 ~stop:90 ~depth:1;
    span ~name:"op" ~start:0 ~stop:100 ~depth:0;
    span ~name:"a" ~start:105 ~stop:125 ~depth:1;
    span ~name:"op" ~start:100 ~stop:130 ~depth:0 ]

let test_self_time () =
  let selfs =
    List.map (fun ((s : Span.completed), v) -> (s.Span.name, v))
      (Stats.self_values ~value:Stats.duration_us tree)
  in
  Alcotest.(check (list (pair string (float 0.))))
    "self = duration - direct children"
    [ ("c", 10.); ("a", 20.); ("b", 40.); ("op", 30.); ("a", 20.); ("op", 10.) ]
    selfs;
  let roots =
    List.map (fun ((s : Span.completed), names) -> (s.Span.start_us, names))
      (Stats.per_root ~value:Stats.duration_us tree)
  in
  Alcotest.(check (list (pair int (list (pair string (float 0.))))))
    "per top-level span, by name"
    [ (0, [ ("a", 20.); ("b", 40.); ("c", 10.); ("op", 30.) ]);
      (100, [ ("a", 20.); ("op", 10.) ]) ]
    roots;
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. (List.assoc 0 roots) in
  Alcotest.(check (float 0.)) "self times add up to the root" 100. total

let test_bound () =
  let lower = Stats.regressed ~better:Stats.Lower ~bound:0.1 in
  let higher = Stats.regressed ~better:Stats.Higher ~bound:0.1 in
  Alcotest.(check bool) "lower: 12% worse" true (lower ~base:[ 10.; 10.; 12. ] ~next:[ 11.2 ]);
  Alcotest.(check bool) "lower: 9% worse" false (lower ~base:[ 10. ] ~next:[ 10.9; 10.9; 50. ]);
  Alcotest.(check bool) "lower: better" false (lower ~base:[ 10. ] ~next:[ 5. ]);
  Alcotest.(check bool) "higher: 11% worse" true (higher ~base:[ 100. ] ~next:[ 89. ]);
  Alcotest.(check bool) "higher: 9% worse" false (higher ~base:[ 100. ] ~next:[ 91. ]);
  Alcotest.(check bool) "higher: better" false (higher ~base:[ 100. ] ~next:[ 200. ])

let () =
  Alcotest.run "ledger-stats"
    [ ( "stats",
        [ Alcotest.test_case "percentiles and median" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "self time over nested spans" `Quick test_self_time;
          Alcotest.test_case "regression bound" `Quick test_bound ] ) ]
