(** Figure 12 (§6): the cover-values extension. Covering every value of a
    w-bit signal with plain cover statements needs 2^w of them; the
    cover-values primitive is a single statement lowered to an array of
    counters. This bench sweeps w and compares statement counts and
    per-cycle simulation cost of the two implementations (their counts are
    equal — checked in the test suite). *)

module Bv = Sic_bv.Bv
open Sic_sim

let circuit w =
  let cb = Sic_ir.Dsl.create_circuit "CV" in
  Sic_ir.Dsl.module_ cb "CV" (fun m ->
      let open Sic_ir.Dsl in
      let x = input m "x" (Sic_ir.Ty.UInt w) in
      let out = output m "out" (Sic_ir.Ty.UInt w) in
      connect m out (x +: lit w 1);
      cover_values m "vals" x);
  Sic_passes.Compile.lower (Sic_ir.Dsl.finalize cb)

let cycle_cost low =
  let b = Compiled.create low in
  let rng = Sic_fuzz.Rng.create 9 in
  let inputs = Backend.data_inputs b in
  Timing.ns_per_run ~quota:0.25 (fun () ->
      List.iter
        (fun (n, ty) ->
          b.Backend.poke n
            (Bv.random ~width:(Sic_ir.Ty.width ty) (Sic_fuzz.Rng.bits30 rng)))
        inputs;
      b.Backend.step 1)

let run () =
  Timing.header "Figure 12: cover-values vs exponential cover expansion";
  Timing.row "%6s %16s %14s %18s %16s\n" "width" "# cover stmts" "ns/cycle" "# native stmts"
    "ns/cycle native";
  List.iter
    (fun w ->
      let low = circuit w in
      let native_cost = cycle_cost low in
      let expanded = Sic_coverage.Cover_values.expand low in
      let n_expanded =
        List.length (Sic_ir.Circuit.covers_of (Sic_ir.Circuit.main expanded))
      in
      let expanded_cost = cycle_cost expanded in
      Timing.row "%6d %16d %14.0f %18d %16.0f\n" w n_expanded expanded_cost 1 native_cost)
    [ 2; 4; 6; 8; 10; 12 ];
  Timing.row
    "\nShape check (paper): the expansion doubles the statement count per\nextra bit (exponential blowup) and its simulation cost follows, while\nthe native cover-values implementation is a single array update whose\ncost stays flat.\n"
