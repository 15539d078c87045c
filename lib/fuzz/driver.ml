module Ast = Ipet_lang.Ast

type failure_report = {
  case_seed : int;
  failure : Oracle.failure;
  mach : Ipet_machine.Machine.t;
  cache : Ipet_machine.Icache.config;
  source : string;
  shrunk_source : string option;
  shrink_attempts : int;
}

type outcome = {
  iters_run : int;
  passed : int;
  worst_wcet : int;    (** largest estimated WCET seen, a cheap progress signal *)
  report : failure_report option;  (** [None] when every case passed *)
}

let null_log _ = ()

let check_case ~mach (case : Gen.case) =
  Oracle.check ~mach ~cache:case.Gen.cache (Render.program case.Gen.prog)

let shrink_case ~mach ~(case : Gen.case) ~(failure : Oracle.failure)
    ~max_attempts =
  let attempts = ref 0 in
  let same_failure prog =
    incr attempts;
    match Oracle.check ~mach ~cache:case.Gen.cache (Render.program prog) with
    | Oracle.Fail f -> f.Oracle.kind = failure.Oracle.kind
    | Oracle.Pass _ -> false
  in
  let small = Shrink.minimize ~max_attempts ~check:same_failure case.Gen.prog in
  (Render.program small, !attempts)

let replay_hint seed = Printf.sprintf "replay: cinderella fuzz --seed %d --iters 1" seed

let run ?(log = null_log) ?(shrink = true) ?(shrink_attempts = 2000)
    ?(mach = Ipet_machine.Machine.e32) ~seed ~iters () =
  let passed = ref 0 in
  let worst_wcet = ref 0 in
  let rec loop i =
    if i >= iters then
      { iters_run = iters; passed = !passed; worst_wcet = !worst_wcet;
        report = None }
    else
      let case = Gen.case (seed + i) in
      match check_case ~mach case with
      | Oracle.Pass stats ->
        incr passed;
        if stats.Oracle.wcet > !worst_wcet then worst_wcet := stats.Oracle.wcet;
        if (i + 1) mod 50 = 0 then
          log (Printf.sprintf "%d/%d cases passed" (i + 1) iters);
        loop (i + 1)
      | Oracle.Fail failure ->
        let case_seed = seed + i in
        log
          (Printf.sprintf "seed %d: %s: %s" case_seed
             (Oracle.kind_name failure.Oracle.kind) failure.Oracle.detail);
        let shrunk_source, attempts =
          if shrink then begin
            log "shrinking...";
            let src, n =
              shrink_case ~mach ~case ~failure ~max_attempts:shrink_attempts
            in
            (Some src, n)
          end
          else (None, 0)
        in
        { iters_run = i + 1;
          passed = !passed;
          worst_wcet = !worst_wcet;
          report =
            Some
              { case_seed;
                failure;
                mach;
                cache = case.Gen.cache;
                source = Render.program case.Gen.prog;
                shrunk_source;
                shrink_attempts = attempts } }
  in
  loop 0

let pp_report ppf (r : failure_report) =
  let cache = r.cache in
  Format.fprintf ppf "@[<v>seed %d failed: %s@,%s@,%s@,mach: %s@,cache: %dB, %dB lines, %d-cycle miss@,@,--- program ---@,%s"
    r.case_seed
    (Oracle.kind_name r.failure.Oracle.kind)
    r.failure.Oracle.detail
    (replay_hint r.case_seed)
    (Ipet_machine.Machine.id r.mach)
    cache.Ipet_machine.Icache.size_bytes cache.Ipet_machine.Icache.line_bytes
    cache.Ipet_machine.Icache.miss_penalty r.source;
  (match r.shrunk_source with
   | Some s ->
     Format.fprintf ppf "@,--- shrunk (%d oracle runs) ---@,%s" r.shrink_attempts s
   | None -> ());
  Format.fprintf ppf "@]"
