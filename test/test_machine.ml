(* Micro-architecture model tests: i-cache, pipeline hazards, cost bounds. *)

module I = Ipet_isa.Instr
module P = Ipet_isa.Prog
module Layout = Ipet_isa.Layout
module Icache = Ipet_machine.Icache
module Cost = Ipet_machine.Cost
module Machine = Ipet_machine.Machine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- icache -------------------------------------------------------------- *)

let small_cache = { Icache.size_bytes = 64; line_bytes = 16; miss_penalty = 8 }

let test_cache_hit_after_miss () =
  let c = Icache.create small_cache in
  check_bool "first access misses" false (Icache.access c 0);
  check_bool "same line hits" true (Icache.access c 4);
  check_bool "line end hits" true (Icache.access c 15);
  check_bool "next line misses" false (Icache.access c 16);
  check_int "hits" 2 (Icache.hits c);
  check_int "misses" 2 (Icache.misses c)

let test_cache_conflict () =
  let c = Icache.create small_cache in
  (* 64-byte cache, 16-byte lines -> 4 slots; addresses 0 and 64 conflict *)
  check_bool "miss 0" false (Icache.access c 0);
  check_bool "conflict evicts" false (Icache.access c 64);
  check_bool "0 evicted" false (Icache.access c 0);
  check_bool "48 independent" false (Icache.access c 48);
  check_bool "48 hits now" true (Icache.access c 48)

let test_cache_flush () =
  let c = Icache.create small_cache in
  ignore (Icache.access c 0);
  check_bool "hit before flush" true (Icache.lookup c 0);
  Icache.flush c;
  check_bool "miss after flush" false (Icache.lookup c 0)

let test_cache_validation () =
  check_bool "bad line size" true
    (try ignore (Icache.create { small_cache with Icache.line_bytes = 12 }); false
     with Invalid_argument _ -> true);
  check_bool "bad capacity" true
    (try ignore (Icache.create { small_cache with Icache.size_bytes = 40 }); false
     with Invalid_argument _ -> true);
  let field cfg =
    match Icache.check cfg with Ok _ -> None | Error (f, _) -> Some f
  in
  check_bool "check accepts the i960KB" true (field Icache.i960kb = None);
  check_bool "check accepts a one-line buffer" true
    (field { small_cache with Icache.size_bytes = 16 } = None);
  List.iter
    (fun (what, cfg, expected) ->
      check_bool what true (field cfg = Some expected))
    [ ("zero line", { small_cache with Icache.line_bytes = 0 }, Icache.Line_bytes);
      ("24-byte line", { small_cache with Icache.line_bytes = 24 },
       Icache.Line_bytes);
      ("zero capacity", { small_cache with Icache.size_bytes = 0 },
       Icache.Size_bytes);
      ("line larger than the cache", { small_cache with Icache.line_bytes = 128 },
       Icache.Size_bytes);
      ("negative penalty", { small_cache with Icache.miss_penalty = -1 },
       Icache.Miss_penalty);
      ("capacity beyond the bound",
       { small_cache with Icache.size_bytes = 2 * Icache.max_size_bytes },
       Icache.Size_bytes);
      ("penalty beyond the bound",
       { small_cache with Icache.miss_penalty = Icache.max_miss_penalty + 1 },
       Icache.Miss_penalty) ];
  check_bool "check accepts the largest penalty" true
    (field { small_cache with Icache.miss_penalty = Icache.max_miss_penalty }
     = None)

let test_lines_spanned () =
  check_int "one instr" 1 (Icache.lines_spanned small_cache ~addr:0 ~size:4);
  check_int "full line" 1 (Icache.lines_spanned small_cache ~addr:0 ~size:16);
  check_int "crosses boundary" 2 (Icache.lines_spanned small_cache ~addr:12 ~size:8);
  check_int "three lines" 3 (Icache.lines_spanned small_cache ~addr:8 ~size:40);
  check_int "empty" 0 (Icache.lines_spanned small_cache ~addr:8 ~size:0)

(* --- e32 timing / pipeline ------------------------------------------------ *)

(* the e32 load-use interlock costs one cycle *)
let e32_load_use_stall = 1

let test_timing_orders () =
  let add = I.Alu (I.Add, 0, I.Reg 1, I.Reg 2) in
  let mul = I.Alu (I.Mul, 0, I.Reg 1, I.Reg 2) in
  let div = I.Alu (I.Div, 0, I.Reg 1, I.Reg 2) in
  let fdiv = I.Fpu (I.Fdiv, 0, I.Reg 1, I.Reg 2) in
  let issue = Machine.issue Machine.e32 ~dcache:false in
  check_bool "add < mul < div" true (issue add < issue mul);
  check_bool "mul < div" true (issue mul < issue div);
  check_bool "div <= fdiv" true (issue div <= issue fdiv)

let test_term_bounds_enclose_actual () =
  List.iter
    (fun mach ->
      List.iter
        (fun term ->
          let best, worst = Machine.term_bounds mach term in
          List.iter
            (fun taken ->
              let t = Machine.term mach ~taken term in
              check_bool (Machine.id mach ^ ": term within bounds") true
                (best <= t && t <= worst))
            [ true; false ])
        [ I.Jump 0; I.Branch (0, 1, 2); I.Return None ])
    Machine.all

let test_load_use_stall () =
  let load = I.Load (3, { I.base = I.Abs 0; offset = 0; index = None }) in
  let use = I.Alu (I.Add, 4, I.Reg 3, I.Imm 1) in
  let no_use = I.Alu (I.Add, 4, I.Reg 5, I.Imm 1) in
  let stall_after = Machine.stall_after Machine.e32 in
  check_int "stall" e32_load_use_stall (stall_after load use);
  check_int "no stall" 0 (stall_after load no_use);
  check_int "alu-alu no stall" 0 (stall_after use no_use)

let test_load_use_through_address () =
  (* the stall also applies when the loaded register is an address index *)
  let load = I.Load (3, { I.base = I.Abs 0; offset = 0; index = None }) in
  let use = I.Load (4, { I.base = I.Abs 8; offset = 0; index = Some (I.Reg 3) }) in
  check_int "address-use stalls" e32_load_use_stall
    (Machine.stall_after Machine.e32 load use)

(* --- cost bounds ----------------------------------------------------------- *)

let block instrs term = { P.id = 0; instrs = Array.of_list instrs; term; src_line = 1 }

let one_block_prog instrs term =
  { P.funcs =
      [| { P.name = "f"; nparams = 0; frame_words = 0;
           blocks = [| block instrs term |] } |];
    P.globals = [];
    P.globals_words = 0 }

let test_cost_ordering () =
  let instrs =
    [ I.Mov (0, I.Imm 1);
      I.Load (1, { I.base = I.Abs 0; offset = 0; index = None });
      I.Alu (I.Add, 2, I.Reg 1, I.Reg 0) ]
  in
  let prog = one_block_prog instrs (I.Branch (2, 0, 0)) in
  let layout = Layout.make prog in
  let costs =
    Cost.func_bounds ~mach:Machine.e32 ~prog Icache.i960kb layout
      prog.P.funcs.(0)
  in
  let b = costs.(0) in
  check_bool "best <= warm worst" true (b.Cost.best <= b.Cost.worst_warm);
  check_bool "warm worst <= worst" true (b.Cost.worst_warm < b.Cost.worst);
  (* difference between worst and warm worst is exactly the line fills *)
  let lines = Icache.lines_spanned Icache.i960kb ~addr:0 ~size:(4 * 4) in
  check_int "miss component" (lines * Icache.i960kb.Icache.miss_penalty)
    (b.Cost.worst - b.Cost.worst_warm)

let test_cost_includes_stall () =
  let load = I.Load (1, { I.base = I.Abs 0; offset = 0; index = None }) in
  let use = I.Alu (I.Add, 2, I.Reg 1, I.Imm 1) in
  let prog_hazard = one_block_prog [ load; use ] (I.Return None) in
  let prog_clean =
    one_block_prog [ load; I.Alu (I.Add, 2, I.Reg 9, I.Imm 1) ] (I.Return None)
  in
  let cost p =
    (Cost.func_bounds ~mach:Machine.e32 ~prog:p Icache.i960kb (Layout.make p)
       p.P.funcs.(0)).(0)
  in
  check_int "hazard adds exactly the stall" e32_load_use_stall
    ((cost prog_hazard).Cost.best - (cost prog_clean).Cost.best)

let test_layout_addresses () =
  let f1_block = block [ I.Mov (0, I.Imm 1) ] (I.Return None) in
  let prog =
    { P.funcs =
        [| { P.name = "a"; nparams = 0; frame_words = 0; blocks = [| f1_block |] };
           { P.name = "b"; nparams = 0; frame_words = 0; blocks = [| f1_block |] } |];
      P.globals = [];
      P.globals_words = 0 }
  in
  let layout = Layout.make prog in
  check_int "a at 0" 0 (Layout.block_addr layout ~func:"a" ~block:0);
  (* block 'a' has 2 instructions (mov + ret) = 8 bytes *)
  check_int "b after a" 8 (Layout.block_addr layout ~func:"b" ~block:0);
  check_int "code size" 16 (Layout.code_size layout);
  check_bool "unknown func" true
    (try ignore (Layout.func_addr layout "zzz"); false with Not_found -> true)

(* property: simulated per-run cost of a straight-line block stays within
   the analytical bounds for random instruction sequences *)
let random_instr rng =
  match Random.State.int rng 6 with
  | 0 -> I.Mov (Random.State.int rng 8, I.Imm (Random.State.int rng 100))
  | 1 -> I.Alu (I.Add, Random.State.int rng 8, I.Reg (Random.State.int rng 8), I.Imm 1)
  | 2 -> I.Alu (I.Mul, Random.State.int rng 8, I.Reg (Random.State.int rng 8), I.Imm 3)
  | 3 -> I.Load (Random.State.int rng 8,
                 { I.base = I.Abs (Random.State.int rng 4); offset = 0; index = None })
  | 4 -> I.Store (I.Reg (Random.State.int rng 8),
                  { I.base = I.Abs (Random.State.int rng 4); offset = 0; index = None })
  | _ -> I.Icmp (I.Clt, Random.State.int rng 8, I.Reg (Random.State.int rng 8), I.Imm 5)

let prop_simulated_block_within_bounds =
  QCheck.Test.make ~name:"simulated block cost within analytical bounds" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed |] in
      let instrs = List.init len (fun _ -> random_instr rng) in
      let prog = one_block_prog instrs (I.Return (Some (I.Imm 0))) in
      let prog = { prog with P.globals_words = 8 } in
      let bounds =
        (Cost.func_bounds ~mach:Machine.e32 ~prog Icache.i960kb
           (Layout.make prog) prog.P.funcs.(0)).(0)
      in
      let m = Ipet_sim.Interp.create prog ~init:[] in
      Ipet_sim.Interp.flush_cache m;
      ignore (Ipet_sim.Interp.call m "f" []);
      let cold = Ipet_sim.Interp.cycles m in
      Ipet_sim.Interp.reset_stats m;
      ignore (Ipet_sim.Interp.call m "f" []);
      let warm = Ipet_sim.Interp.cycles m in
      bounds.Cost.best <= warm && warm <= bounds.Cost.worst_warm
      && bounds.Cost.best <= cold && cold <= bounds.Cost.worst)

let props = List.map QCheck_alcotest.to_alcotest [ prop_simulated_block_within_bounds ]

let suite =
  [ ("icache hit after miss", `Quick, test_cache_hit_after_miss);
    ("icache conflict eviction", `Quick, test_cache_conflict);
    ("icache flush", `Quick, test_cache_flush);
    ("icache config validation", `Quick, test_cache_validation);
    ("lines spanned", `Quick, test_lines_spanned);
    ("timing orders", `Quick, test_timing_orders);
    ("terminator bounds enclose actual", `Quick, test_term_bounds_enclose_actual);
    ("load-use stall", `Quick, test_load_use_stall);
    ("load-use through address", `Quick, test_load_use_through_address);
    ("cost ordering", `Quick, test_cost_ordering);
    ("cost includes stall", `Quick, test_cost_includes_stall);
    ("layout addresses", `Quick, test_layout_addresses) ]
  @ props

(* --- data cache -------------------------------------------------------------- *)

let dcache_cfg = { Icache.size_bytes = 256; line_bytes = 16; miss_penalty = 6 }

let test_dcache_enclosure () =
  (* with the data cache enabled everywhere, the suite invariant must hold *)
  List.iter
    (fun name ->
      let bench = Ipet_suite.Suite.find name in
      let row = Ipet_suite.Experiments.run ~dcache:dcache_cfg bench in
      let e = row.Ipet_suite.Experiments.estimated in
      let m = row.Ipet_suite.Experiments.measured in
      check_bool (name ^ ": measured within estimated (dcache)") true
        (e.Ipet_suite.Experiments.lo <= m.Ipet_suite.Experiments.lo
         && m.Ipet_suite.Experiments.hi <= e.Ipet_suite.Experiments.hi))
    [ "check_data"; "piksrt"; "matgen" ]

let test_dcache_speeds_hot_loops () =
  (* a loop re-reading the same small array: the cached run beats the flat
     model once warm *)
  let src = "int buf[8];\nint f(int n) { int i; int s; s = 0; \
             for (i = 0; i < n; i = i + 1) s = s + buf[i & 7]; return s; }"
  in
  let compiled = Ipet_lang.Frontend.compile_string_exn src in
  let run dcache =
    let m = Ipet_sim.Interp.create ?dcache compiled.Ipet_lang.Compile.prog
        ~init:compiled.Ipet_lang.Compile.init_data
    in
    ignore (Ipet_sim.Interp.call m "f" [ Ipet_isa.Value.Vint 500 ]);
    Ipet_sim.Interp.cycles m
  in
  let flat = run None in
  let cached = run (Some dcache_cfg) in
  check_bool "cached run faster on a hot array" true (cached < flat)

let test_dcache_stats () =
  let src = "int buf[64];\nint f() { int i; int s; s = 0; \
             for (i = 0; i < 64; i = i + 1) s = s + buf[i]; return s; }"
  in
  let compiled = Ipet_lang.Frontend.compile_string_exn src in
  let m = Ipet_sim.Interp.create ~dcache:dcache_cfg compiled.Ipet_lang.Compile.prog
      ~init:compiled.Ipet_lang.Compile.init_data
  in
  ignore (Ipet_sim.Interp.call m "f" []);
  (* 64 words = 256 bytes = 16 lines: one miss per line, 3 hits per line *)
  check_int "dcache misses" 16 (Ipet_sim.Interp.dcache_misses m);
  check_int "dcache hits" 48 (Ipet_sim.Interp.dcache_hits m)

let suite =
  suite
  @ [ ("dcache enclosure", `Slow, test_dcache_enclosure);
      ("dcache speeds hot loops", `Quick, test_dcache_speeds_hot_loops);
      ("dcache stats", `Quick, test_dcache_stats) ]

(* --- machine models -------------------------------------------------------- *)

module E = Ipet_suite.Experiments
module Suite = Ipet_suite.Suite
module Bspec = Ipet_suite.Bspec

(* the cross-target differential runs over the paper's set AND the
   Malardalen-style extension — every benchmark the repo knows *)
let all_benchmarks = Suite.all @ Suite.extended

let test_machine_of_string () =
  List.iter
    (fun m ->
      match Machine.of_string (Machine.id m) with
      | Ok m' -> check_bool (Machine.id m ^ " round trips") true (m' == m)
      | Error e -> Alcotest.fail e)
    Machine.all;
  check_bool "unknown machine rejected" true
    (match Machine.of_string "z80" with Ok _ -> false | Error _ -> true)

let test_e32_is_the_historical_model () =
  (* the default machine keeps the historical i960KB cycle figures: the
     byte-identity of every seed golden rests on them *)
  let m = Machine.e32 in
  let mem = { I.base = I.Abs 0; offset = 0; index = None } in
  List.iter
    (fun (what, i, cycles) ->
      check_int ("e32 issue: " ^ what) cycles (Machine.issue m ~dcache:false i))
    [ ("add", I.Alu (I.Add, 0, I.Reg 1, I.Reg 2), 1);
      ("mul", I.Alu (I.Mul, 0, I.Reg 1, I.Reg 2), 4);
      ("div", I.Alu (I.Div, 0, I.Reg 1, I.Reg 2), 18);
      ("fdiv", I.Fpu (I.Fdiv, 0, I.Reg 1, I.Reg 2), 20);
      ("load", I.Load (3, mem), 3);
      ("store", I.Store (I.Reg 1, mem), 2);
      ("mov", I.Mov (0, I.Imm 7), 1);
      ("call", I.Call (Some 0, "g", []), 8) ];
  check_int "e32 dcache load issue is the base" 2
    (Machine.issue m ~dcache:true (I.Load (3, mem)));
  check_bool "e32 fetch is the i960KB cache" true
    (m.Machine.fetch = Icache.i960kb);
  List.iter
    (fun (what, t, bounds) ->
      check_bool ("e32 term bounds: " ^ what) true
        (Machine.term_bounds m t = bounds))
    [ ("jump", I.Jump 0, (2, 2));
      ("branch", I.Branch (0, 1, 2), (1, 3));
      ("return", I.Return None, (7, 7)) ]

let test_m7_timings () =
  let issue m = Machine.issue m ~dcache:false in
  let mul = I.Alu (I.Mul, 0, I.Reg 1, I.Reg 2) in
  let div = I.Alu (I.Div, 0, I.Reg 1, I.Reg 2) in
  let fdiv = I.Fpu (I.Fdiv, 0, I.Reg 1, I.Reg 2) in
  let m7 = Machine.m7 in
  check_int "m7 single-cycle multiplier" 1 (issue m7 mul);
  check_bool "m7 mul faster than e32 mul" true
    (issue m7 mul < issue Machine.e32 mul);
  check_bool "m7 div still slow" true (issue m7 div > 1);
  check_bool "div <= fdiv on m7" true (issue m7 div <= issue m7 fdiv);
  check_int "m7 return" 4 (Machine.term m7 ~taken:true (I.Return None));
  check_bool "m7 terminator bounds" true
    (Machine.term_bounds m7 (I.Branch (0, 1, 2)) = (1, 3))

let test_m7_prefetch_buffer () =
  (* the m7 "cache" is a 1-line prefetch buffer — a degenerate but valid
     Icache configuration, so all the geometry machinery applies *)
  let cfg = Machine.m7.Machine.fetch in
  let c = Icache.create cfg in
  check_int "one slot" (fst (Icache.slot_of cfg 0))
    (fst (Icache.slot_of cfg cfg.Icache.line_bytes));
  check_bool "first access misses" false (Icache.access c 0);
  check_bool "same line hits" true (Icache.access c 4);
  check_bool "next line misses and evicts" false
    (Icache.access c cfg.Icache.line_bytes);
  check_bool "previous line gone" false (Icache.access c 0)

let test_resident () =
  let e32_fetch = Machine.e32.Machine.fetch in
  let m7_fetch = Machine.m7.Machine.fetch in
  let line = m7_fetch.Icache.line_bytes in
  (* e32: an aligned region of the cache's capacity is resident; one
     starting mid-line spans 33 lines over 32 sets, and the first and
     last evict each other on every iteration *)
  check_bool "e32: aligned capacity" true
    (Icache.resident Icache.i960kb ~lo:0 ~hi:512);
  check_bool "e32: unaligned capacity spans 33 lines" false
    (Icache.resident Icache.i960kb ~lo:8 ~hi:520);
  check_bool "e32: one byte over" false
    (Icache.resident e32_fetch ~lo:0 ~hi:(e32_fetch.Icache.size_bytes + 1));
  (* m7: only a region inside one aligned line survives the 1-line buffer *)
  check_bool "m7: inside one line" true
    (Icache.resident m7_fetch ~lo:4 ~hi:line);
  check_bool "m7: exactly one full line" true
    (Icache.resident m7_fetch ~lo:0 ~hi:line);
  check_bool "m7: straddles a line boundary" false
    (Icache.resident m7_fetch ~lo:(line - 4) ~hi:(line + 4));
  check_bool "m7: empty region" false (Icache.resident m7_fetch ~lo:8 ~hi:8)

let test_machine_cycle_tables () =
  let load = I.Load (3, { I.base = I.Abs 0; offset = 0; index = None }) in
  let use = I.Alu (I.Add, 4, I.Reg 3, I.Imm 1) in
  let no_use = I.Alu (I.Add, 4, I.Reg 5, I.Imm 1) in
  let cycles m instrs = Machine.instr_cycles m ~dcache:false instrs in
  let stall m = Machine.stall_after m load use in
  check_int "e32 load-use stall" 1 (stall Machine.e32);
  check_int "m7 load-use stall is deeper" 2 (stall Machine.m7);
  check_int "m7 independent pair" 0 (Machine.stall_after Machine.m7 load no_use);
  let table = cycles Machine.m7 [| load; use; no_use |] in
  let issue i = Machine.issue Machine.m7 ~dcache:false i in
  check_int "first entry is the bare issue" (issue load) table.(0);
  check_int "stall charged on the use" (issue use + 2) table.(1);
  check_int "none on the tail" (issue no_use) table.(2);
  check_int "dcache load costs its base" Machine.e32.Machine.load
    (Machine.instr_cycles Machine.e32 ~dcache:true [| load |]).(0)

(* regression for the latent-assumption audit: the line-split refetch
   charge in [Cost.func_bounds] and the decoded slots in [Interp] must
   follow the machine's own geometry, not the i960KB constants *)
let test_cost_follows_machine_geometry () =
  let instrs =
    [ I.Mov (0, I.Imm 1);
      I.Load (1, { I.base = I.Abs 0; offset = 0; index = None });
      I.Alu (I.Add, 2, I.Reg 1, I.Reg 0) ]
  in
  let prog = one_block_prog instrs (I.Branch (2, 0, 0)) in
  let layout = Layout.make prog in
  let m7_fetch = Machine.m7.Machine.fetch in
  let b =
    (Cost.func_bounds ~mach:Machine.m7 ~prog m7_fetch layout
       prog.P.funcs.(0)).(0)
  in
  (* worst - worst_warm is exactly the m7 line fills at the m7 penalty *)
  let lines = Icache.lines_spanned m7_fetch ~addr:0 ~size:(4 * 4) in
  check_int "m7 miss component" (lines * m7_fetch.Icache.miss_penalty)
    (b.Cost.worst - b.Cost.worst_warm);
  (* the e32 machine reproduces the historical bounds: mov 1, load 3,
     add 1 plus its load-use stall 1, a 1..3-cycle branch, and one
     16-byte line at 8 cycles *)
  let e32_b =
    (Cost.func_bounds ~mach:Machine.e32 ~prog Icache.i960kb layout
       prog.P.funcs.(0)).(0)
  in
  check_bool "e32 cost bounds" true
    (e32_b = { Cost.best = 7; worst_warm = 9; worst = 17 })

let test_sim_follows_machine () =
  (* the same program takes different cycle counts on the two machines,
     and the explicit-e32 simulator is the default simulator *)
  let src =
    "int f(int n) { int i; int s; s = 0; \
     for (i = 0; i < n; i = i + 1) s = s + i * 3; return s; }"
  in
  let compiled = Ipet_lang.Frontend.compile_string_exn src in
  let cycles mach =
    let m =
      Ipet_sim.Interp.create ?mach compiled.Ipet_lang.Compile.prog
        ~init:compiled.Ipet_lang.Compile.init_data
    in
    ignore (Ipet_sim.Interp.call m "f" [ Ipet_isa.Value.Vint 50 ]);
    Ipet_sim.Interp.cycles m
  in
  check_int "explicit e32 = default sim" (cycles None)
    (cycles (Some Machine.e32));
  (* not necessarily faster — the 1-line prefetch buffer refetches loop
     bodies the i960KB cache would hold — but decidedly not the same *)
  check_bool "m7 timing model differs from e32" true
    (cycles (Some Machine.m7) <> cycles None)

(* --- cross-target differential over the full benchmark set ---------------- *)

let m7_rows = lazy (E.run_all ~mach:Machine.m7 ())

let check_enclosure name (row : E.row) =
  let e = row.E.estimated and m = row.E.measured in
  check_bool (name ^ ": measured within estimated") true
    (e.E.lo <= m.E.lo && m.E.hi <= e.E.hi);
  check_bool (name ^ ": calculated within estimated") true
    (e.E.lo <= row.E.calculated.E.lo && row.E.calculated.E.hi <= e.E.hi)

let test_m7_enclosure_all_benchmarks () =
  (* the paper's 13 come from one [E.run_all]; the 8 extended benchmarks
     are measured here, so all 21 cross the differential *)
  List.iter2
    (fun (b : Bspec.t) row -> check_enclosure ("m7 " ^ b.Bspec.name) row)
    Suite.all (Lazy.force m7_rows);
  List.iter
    (fun (b : Bspec.t) ->
      check_enclosure ("m7 " ^ b.Bspec.name) (E.run ~mach:Machine.m7 b))
    Suite.extended

let test_extended_e32_explicit_matches_default () =
  (* bench renders the extended golden with an explicit e32, so pin the
     identity with the default directly: explicit e32 rows equal the
     default rows *)
  List.iter
    (fun (b : Bspec.t) ->
      check_bool (b.Bspec.name ^ ": explicit e32 = default") true
        (E.run ~mach:Machine.e32 b = E.run b))
    Suite.extended

let test_m7_certify_gap_closed () =
  (* every suite benchmark under m7 must produce checker-valid duality
     certificates with a closed gap, same as the e32 pipeline *)
  List.iter
    (fun (b : Bspec.t) ->
      let spec = Bspec.spec ~mach:Machine.m7 b in
      let result = Ipet.Analysis.analyze ~certify:true spec in
      List.iter
        (fun (side, c) ->
          match (c : Ipet.Analysis.certificate option) with
          | None ->
            Alcotest.failf "%s: no %s certificate under m7" b.Bspec.name side
          | Some c ->
            (match c.Ipet.Analysis.verdict with
             | Ipet_cert.Checker.Invalid reasons ->
               Alcotest.failf "%s: m7 %s certificate rejected: %s"
                 b.Bspec.name side (String.concat "; " reasons)
             | Ipet_cert.Checker.Valid _ ->
               check_bool (b.Bspec.name ^ ": m7 " ^ side ^ " gap closed")
                 true
                 (Ipet_cert.Checker.gap_closed c.Ipet.Analysis.verdict)))
        [ ("wcet", result.Ipet.Analysis.wcet_cert);
          ("bcet", result.Ipet.Analysis.bcet_cert) ])
    Suite.all

let suite =
  suite
  @ [ ("machine of_string", `Quick, test_machine_of_string);
      ("e32 is the historical model", `Quick, test_e32_is_the_historical_model);
      ("m7 timings", `Quick, test_m7_timings);
      ("m7 prefetch buffer", `Quick, test_m7_prefetch_buffer);
      ("residency predicates", `Quick, test_resident);
      ("machine stall tables", `Quick, test_machine_cycle_tables);
      ("cost follows machine geometry", `Quick, test_cost_follows_machine_geometry);
      ("sim follows machine", `Quick, test_sim_follows_machine);
      ("m7 enclosure on all benchmarks", `Slow, test_m7_enclosure_all_benchmarks);
      ("extended set: explicit e32 = default", `Slow,
       test_extended_e32_explicit_matches_default);
      ("m7 certificates gap-closed", `Slow, test_m7_certify_gap_closed) ]
