(** Ablation benches for the design choices DESIGN.md calls out:

    1. toggle coverage with vs without the global alias analysis — the
       paper states the analysis "is necessary to make toggle coverage
       perform well" (§4.2); this measures both the extra cover points
       and the extra run time when it is disabled;
    2. ESSENT-style conditional evaluation on vs off, on a low-activity
       workload (the bit-serial core) vs a high-activity one;
    3. constant propagation + DCE on vs off, as simulation-speed
       enablers for the compiled backend. *)

open Sic_sim

let replay_cost low trace =
  let b = Compiled.create low in
  Timing.ns_per_run ~quota:0.4 (fun () -> Replay.replay b trace)

let toggle_alias_ablation () =
  Timing.row "--- toggle coverage: global alias analysis on/off (riscv-mini)\n";
  let c, trace = Workloads.riscv_mini ~cycles:2_000 in
  let low = Sic_passes.Compile.lower c in
  let with_alias, db_with = Sic_coverage.Toggle_coverage.instrument low in
  let without_alias, db_without =
    Sic_coverage.Toggle_coverage.instrument ~use_alias:false low
  in
  let t_with = replay_cost with_alias trace in
  let t_without = replay_cost without_alias trace in
  Timing.row "    %-18s %6d cover points  %12.0f ns/replay\n" "with alias"
    (List.length db_with.Sic_coverage.Toggle_coverage.points)
    t_with;
  Timing.row "    %-18s %6d cover points  %12.0f ns/replay (+%.0f%%)\n" "without alias"
    (List.length db_without.Sic_coverage.Toggle_coverage.points)
    t_without
    (100.0 *. (t_without -. t_with) /. t_with)

let activity_ablation () =
  Timing.row "--- conditional evaluation (ESSENT) on/off\n";
  List.iter
    (fun (name, cycles, build) ->
      let c, trace = build ~cycles in
      let low = Sic_passes.Compile.lower c in
      let plain =
        let b = Compiled.create low in
        Timing.ns_per_run ~quota:0.4 (fun () -> Replay.replay b trace)
      in
      let activity =
        let b = Essent.create low in
        Timing.ns_per_run ~quota:0.4 (fun () -> Replay.replay b trace)
      in
      Timing.row "    %-14s compiled %12.0f ns   essent %12.0f ns   (%+.0f%%)\n" name plain
        activity
        (100.0 *. (activity -. plain) /. plain))
    [
      ("serv (low act.)", 3_000, Workloads.serv);
      ("riscv-mini", 3_000, Workloads.riscv_mini);
    ]

let optimization_ablation () =
  Timing.row "--- const-prop + DCE on/off (compiled backend, riscv-mini)\n";
  let c, trace = Workloads.riscv_mini ~cycles:2_000 in
  let optimized = Sic_passes.Compile.lower c in
  let plain =
    Sic_passes.Pass.run_pipeline
      [ Sic_passes.Check.pass; Sic_passes.Lower_whens.pass; Sic_passes.Inline.pass ]
      c
  in
  let t_opt = replay_cost optimized trace in
  let t_plain = replay_cost plain trace in
  Timing.row "    %-18s %12.0f ns/replay\n" "optimized" t_opt;
  Timing.row "    %-18s %12.0f ns/replay (+%.0f%%)\n" "unoptimized" t_plain
    (100.0 *. (t_plain -. t_opt) /. t_opt)

let run () =
  Timing.header "Ablations: alias analysis, conditional evaluation, optimization";
  toggle_alias_ablation ();
  activity_ablation ();
  optimization_ablation ();
  Timing.row
    "\nShape check (paper, §4.2): disabling the alias analysis inflates the\ntoggle instrumentation (duplicate covers on always-equal signals) and\nits run-time cost — the analysis is what makes toggle coverage\nperform well.\n"
