(* Aggregates every test suite; run with [dune runtest]. *)

let () =
  Alcotest.run "ipet"
    [ ("num", Test_num.suite);
      ("lp", Test_lp.suite);
      ("cert", Test_cert.suite);
      ("presolve", Test_presolve.suite);
      ("isa", Test_isa.suite);
      ("lang", Test_lang.suite);
      ("sim", Test_sim.suite);
      ("cfg", Test_cfg.suite);
      ("machine", Test_machine.suite);
      ("core", Test_core.suite);
      ("tools", Test_tools.suite);
      ("autobound", Test_autobound.suite);
      ("optimize", Test_optimize.suite);
      ("regalloc", Test_regalloc.suite);
      ("asm", Test_asm.suite);
      ("suite", Test_suite.suite);
      ("edge", Test_edge.suite);
      ("obs", Test_obs.suite);
      ("fuzz", Test_fuzz.suite);
      ("solver_oracle", Test_solver_oracle.suite);
      ("serve", Test_serve.suite) ]
