(** Figure 8: run-time overhead of coverage instrumentation on the
    compiled (Verilator-analogue) backend, relative to the uninstrumented
    baseline.

    Variants per design:
    - baseline          : no coverage
    - built-in line     : the simulator's own hard-coded line coverage
                          (Verilator's native mode)
    - line (pass)       : our simulator-independent line coverage
    - toggle (pass)     : our toggle coverage
    - fsm (pass)        : our FSM coverage (designs with enums)
    - ready/valid (pass): our decoupled-transfer coverage

    The paper's claim: the pass-based metrics cost about the same as the
    built-in implementation ("Verilator appears to internally follow an
    approach similar to ours"). *)

open Sic_sim

let bench_cycles = 4_000

let replay_time low trace =
  let b = Compiled.create low in
  Timing.ns_per_run (fun () -> Replay.replay b trace)

let replay_time_builtin c trace =
  let b = Compiled.create ~builtin_line:true c in
  Timing.ns_per_run (fun () -> Replay.replay b trace)

let variants (c : Sic_ir.Circuit.t) =
  let lower = Sic_passes.Compile.lower in
  let line () =
    let c', _ = Sic_coverage.Line_coverage.instrument c in
    lower c'
  in
  let toggle () =
    let low = lower c in
    fst (Sic_coverage.Toggle_coverage.instrument low)
  in
  let fsm () =
    let low = lower c in
    fst (Sic_coverage.Fsm_coverage.instrument low)
  in
  let rv () =
    let low = lower c in
    fst (Sic_coverage.Ready_valid_coverage.instrument low)
  in
  let mux () =
    let low = lower c in
    fst (Sic_coverage.Mux_coverage.instrument low)
  in
  [
    ("line (pass)", line); ("toggle (pass)", toggle); ("fsm (pass)", fsm);
    ("ready/valid", rv); ("mux (rfuzz)", mux);
  ]

let run () =
  Timing.header "Figure 8: coverage overhead on the compiled backend (vs baseline)";
  Timing.row "%-14s %-16s %12s %10s\n" "Design" "Instrumentation" "ns/replay" "overhead";
  List.iter
    (fun (name, _paper_cycles, _cycles, build) ->
      let c, trace = build ~cycles:bench_cycles in
      let low = Sic_passes.Compile.lower c in
      let base = replay_time low trace in
      Timing.row "%-14s %-16s %12.0f %10s\n" name "baseline" base "-";
      let builtin = replay_time_builtin c trace in
      Timing.row "%-14s %-16s %12.0f %+9.1f%%\n" name "built-in line" builtin
        (100.0 *. (builtin -. base) /. base);
      List.iter
        (fun (vname, make) ->
          match make () with
          | instrumented ->
              let t = replay_time instrumented trace in
              Timing.row "%-14s %-16s %12.0f %+9.1f%%\n" name vname t
                (100.0 *. (t -. base) /. base)
          | exception _ -> Timing.row "%-14s %-16s %12s %10s\n" name vname "n/a" "-")
        (variants c);
      Timing.row "\n")
    Workloads.table2_set;
  Timing.row
    "Shape check (paper): pass-based line coverage costs about the same as\nthe simulator's built-in line coverage; TLRAM's line overhead is near\nzero (8 cover points); toggle coverage is the most expensive metric.\n"
