(* Aggregated test runner; suites are registered by per-library test modules. *)
let () =
  Alcotest.run "roccc"
    (Test_cfront.suites @ Test_hir.suites @ Test_vm.suites @ Test_datapath.suites @ Test_vhdl.suites @ Test_hw.suites @ Test_core_driver.suites @ Test_backend_opt.suites @ Test_analysis_extra.suites @ Test_testbench.suites @ Test_robustness.suites @ Test_models.suites @ Test_profile.suites @ Test_vcd.suites @ Test_coverage.suites @ Test_kernel_gallery.suites @ Test_fuzz2.suites @ Test_util.suites @ Test_passes.suites @ Test_service.suites @ Test_tune.suites @ Test_wide.suites @ Test_net.suites @ Test_experiments.suites)
