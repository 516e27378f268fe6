let () =
  Alcotest.run "sof"
    (List.concat [ Test_util.suite; Test_crypto.suite; Test_bignum.suite; Test_pki.suite; Test_sim.suite; Test_net.suite; Test_channel.suite; Test_smr.suite; Test_protocol_units.suite; Test_protocols.suite; Test_harness.suite; Test_security.suite; Test_runtime.suite; Test_properties.suite; Test_adversary.suite; Test_check.suite; Test_lint.suite; Test_regression.suite; Test_bench_doc.suite; Test_checkpoint.suite; Test_storage.suite; Test_gray.suite; Test_trajectory.suite; Test_cost.suite; Test_crash.suite ])
