(** §3: the simulator-independent interface itself. One instrumented
    design, one recorded stimulus, five very different backends — a
    tree-walking interpreter (Treadle), a compiled tape (Verilator), an
    activity-driven simulator (ESSENT), the scan-chain "FPGA" path
    (FireSim), and a BMC-generated trace (SymbiYosys) — and one identical
    counts map from all of them. *)

module Counts = Sic_coverage.Counts
module Scan = Sic_firesim.Scan_chain
module Driver = Sic_firesim.Driver
module Bmc = Sic_formal.Bmc
open Sic_sim

let run () =
  Timing.header "Section 3: one cover primitive, five backends, identical counts";
  let c = Sic_designs.Gcd.circuit () in
  let c, _ = Sic_coverage.Line_coverage.instrument c in
  let low = Sic_passes.Compile.lower c in
  (* record one stimulus: compute gcd(270, 192), then gcd(17, 5) *)
  let scratch = Compiled.create low in
  let trace =
    Replay.record scratch ~cycles:80 (fun b cycle ->
        b.Backend.poke "reset" (Sic_bv.Bv.of_bool (cycle < 1));
        b.Backend.poke "io_out_ready" (Sic_bv.Bv.one 1);
        let feed v on =
          b.Backend.poke "io_in_valid" (Sic_bv.Bv.of_bool on);
          b.Backend.poke "io_in_bits" (Sic_bv.Bv.of_int ~width:32 v)
        in
        if cycle = 1 then feed ((270 lsl 16) lor 192) true
        else if cycle = 40 then feed ((17 lsl 16) lor 5) true
        else feed 0 false)
  in
  let results = ref [] in
  let note name counts = results := (name, counts) :: !results in
  (* 1-3: software backends *)
  List.iter
    (fun (name, create) ->
      let b : Backend.t = create low in
      Replay.replay b trace;
      note name (b.Backend.counts ()))
    [
      ("interp (Treadle)", Interp.create);
      ("compiled (Verilator)", (fun c -> Compiled.create c));
      ("essent (ESSENT)", Essent.create);
    ]
  ;
  (* 4: scan-chain FPGA path *)
  let chained, chain = Scan.insert ~width:32 low in
  let fb = Compiled.create chained in
  let scan = Driver.run_and_scan fb chain ~workload:(fun b -> Replay.replay b trace) in
  note "scan-chain (FireSim)" scan.Driver.counts;
  (* print *)
  let reference = List.assoc "interp (Treadle)" !results in
  Timing.row "%-24s %10s %8s\n" "backend" "covered" "equal?";
  List.iter
    (fun (name, counts) ->
      Timing.row "%-24s %7d/%d %8s\n" name (Counts.covered_points counts)
        (Counts.total_points counts)
        (if Counts.equal counts reference then "yes" else "NO"))
    (List.rev !results);
  (* 5: the formal backend generates its own traces; show it reaching an
     arbitrary cover and agreeing with a software replay *)
  let report = Bmc.check_covers ~bound:8 low in
  (match Bmc.reachable report with
  | (name, witness) :: _ ->
      let b = Interp.create low in
      Replay.replay b witness;
      Timing.row "%-24s %s -> hit (replayed trace, count %d)\n" "bmc (SymbiYosys)" name
        (Counts.get (b.Backend.counts ()) name)
  | [] -> Timing.row "%-24s (no reachable covers?)\n" "bmc (SymbiYosys)");
  (* per-backend implementation effort, the §3.x narrative (Treadle: ~200
     lines; ESSENT: ~60 lines in 5 hours) *)
  let loc path =
    if Sys.file_exists path then
      let lines = String.split_on_char '\n' (Sic_obs.Artifact.load path Fun.id) in
      Some (List.length (List.filter (fun l -> String.trim l <> "") lines))
    else None
  in
  Timing.row "\nper-backend cover support (lines of code; paper: Treadle ~200, ESSENT ~60):\n";
  List.iter
    (fun (name, files) ->
      match List.filter_map loc files with
      | [] -> ()
      | ls -> Timing.row "  %-28s %4d lines\n" name (List.fold_left ( + ) 0 ls))
    [
      ("interp (Treadle)", [ "lib/sim/interp.ml" ]);
      ("compiled (Verilator glue)", [ "lib/sim/compiled.ml" ]);
      ("essent (ESSENT)", [ "lib/sim/essent.ml" ]);
      ("scan chain + driver (FireSim)", [ "lib/firesim/scan_chain.ml"; "lib/firesim/driver.ml" ]);
      ("bmc (SymbiYosys)", [ "lib/formal/bmc.ml"; "lib/formal/unroll.ml" ]);
    ];
  Timing.row
    "\nShape check (paper): every backend reports the same map from cover\nname to count; merging across backends is therefore trivial.\n"
