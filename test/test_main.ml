let () =
  Alcotest.run "protean"
    [
      ("isa", Test_isa.tests);
      ("arch", Test_arch.tests);
      ("protcc", Test_protcc.tests);
      ("certify", Test_certify.tests);
      ("ooo", Test_ooo.tests);
      ("defense", Test_defense.tests);
      ("workloads", Test_workloads.tests);
      ("amulet", Test_amulet.tests);
      ("harness", Test_harness.tests);
      ("edge", Test_edge.tests);
      ("robustness", Test_robustness.tests);
      ("supervisor", Test_supervisor.tests);
      ("golden", Test_golden.tests);
      ("transport", Test_transport.tests);
      ("telemetry", Test_telemetry.tests);
      ("hotloop", Test_hotloop.tests);
    ]
