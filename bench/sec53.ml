(** §5.3: coverage merging and removal. Run a suite of software tests,
    merge their counts (trivially — same format from every backend), then
    remove cover points hit at least 10 times before "building the FPGA
    image". The paper reports 42 % of counters removed and the 32-bit LUT
    overhead dropping from 2.8x to 2.0x. *)

module Counts = Sic_coverage.Counts
module Rm = Sic_firesim.Resource_model
open Sic_sim

(* the "RISC-V test suite": several programs over the riscv-mini SoC core
   plus directed peripheral traffic, each run on a different backend to
   demonstrate cross-backend merging *)
let software_runs low =
  let run_with create ~cycles ~seed =
    let b = create low in
    Backend.reset_sequence b;
    Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create seed)) ~cycles b;
    b.Backend.counts ()
  in
  [
    ("program-suite (compiled)",
     let b = Compiled.create low in
     Workloads.soc_drive b ~cores:4 ~run_cycles:4_000;
     b.Backend.counts ());
    ("random-io (interp)", run_with Interp.create ~cycles:60 ~seed:1);
    ("random-io (essent)", run_with Essent.create ~cycles:400 ~seed:2);
  ]

let run () =
  Timing.header "Section 5.3: coverage merging and counter removal";
  let c = Sic_designs.Soc.circuit Sic_designs.Soc.rocket_config in
  let c, _ = Sic_coverage.Line_coverage.instrument c in
  let low = Sic_passes.Compile.lower c in
  let total = List.length (Sic_ir.Circuit.covers_of (Sic_ir.Circuit.main low)) in
  let runs = software_runs low in
  List.iter
    (fun (name, counts) ->
      Timing.row "  %-28s covered %5d/%d\n" name (Counts.covered_points counts) total)
    runs;
  let merged = Counts.merge (List.map snd runs) in
  Timing.row "  %-28s covered %5d/%d\n" "merged (all backends)" (Counts.covered_points merged)
    total;
  (* removal keys on the test-suite run, as in the paper ("coverage
     results from running a RISC-V test suite") *)
  let suite = List.assoc "program-suite (compiled)" runs in
  let r = Sic_coverage.Removal.remove_covered ~threshold:10 suite low in
  let removed = List.length r.Sic_coverage.Removal.removed in
  Timing.row "\n  removal threshold 10: %d/%d counters removed (%.0f%%; paper: 42%%)\n" removed
    total
    (100.0 *. float_of_int removed /. float_of_int total);
  let base = Rm.baseline low in
  let before = Rm.with_coverage base ~n_covers:total ~width:32 in
  let after = Rm.with_coverage base ~n_covers:(total - removed) ~width:32 in
  Timing.row "  32-bit LUT ratio vs baseline: %.1fx -> %.1fx (paper: 2.8x -> 2.0x)\n"
    (float_of_int before.Rm.luts /. float_of_int base.Rm.luts)
    (float_of_int after.Rm.luts /. float_of_int base.Rm.luts);
  (* sanity: the stripped circuit still simulates and reports fewer counters *)
  let b = Compiled.create r.Sic_coverage.Removal.circuit in
  b.Backend.step 10;
  Timing.row "  stripped circuit reports %d counters\n"
    (Counts.total_points (b.Backend.counts ()))
