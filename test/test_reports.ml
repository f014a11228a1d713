(** Tests for the report generators and counts utilities: per-module
    rollups, HTML emission, printf formatting, counter saturation. *)

module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Line = Sic_coverage.Line_coverage
open Helpers
open Sic_sim

(* two instances of a leaf with a branch, one exercised, one not *)
let two_instance_run () =
  let cb = Sic_ir.Dsl.create_circuit "Duo" in
  Sic_ir.Dsl.module_ cb "Leaf" (fun m ->
      let open Sic_ir.Dsl in
      let x = input ~loc:__POS__ m "x" (Sic_ir.Ty.UInt 1) in
      let y = output ~loc:__POS__ m "y" (Sic_ir.Ty.UInt 1) in
      connect m y false_;
      when_ ~loc:__POS__ m x (fun () -> connect m y true_));
  Sic_ir.Dsl.module_ cb "Duo" (fun m ->
      let open Sic_ir.Dsl in
      let p = input ~loc:__POS__ m "p" (Sic_ir.Ty.UInt 1) in
      let out = output ~loc:__POS__ m "out" (Sic_ir.Ty.UInt 2) in
      connect m (instance m "hot" "Leaf" "x") p;
      connect m (instance m "cold" "Leaf" "x") false_;
      connect m out
        (cat_s (instance m "hot" "Leaf" "y") (instance m "cold" "Leaf" "y")));
  let c, db = Line.instrument (Sic_ir.Dsl.finalize cb) in
  let low = lower c in
  let b = Compiled.create low in
  b.Backend.poke "p" (Bv.one 1);
  b.Backend.step 4;
  (db, b.Backend.counts ())

let test_module_summary () =
  let db, counts = two_instance_run () in
  let summaries = Line.module_summaries db counts in
  let leaf = List.find (fun s -> s.Line.summary_module = "Leaf") summaries in
  Alcotest.(check int) "two leaf instances" 2 (List.length leaf.Line.instances);
  let find inst =
    let _, c, t = List.find (fun (i, _, _) -> i = inst) leaf.Line.instances in
    (c, t)
  in
  let hot_c, hot_t = find "hot" and cold_c, cold_t = find "cold" in
  Alcotest.(check int) "same branch count per instance" hot_t cold_t;
  Alcotest.(check bool) "hot instance fully covered" true (hot_c = hot_t);
  Alcotest.(check bool) "cold instance not fully covered" true (cold_c < cold_t);
  let text = Line.render_module_summary db counts in
  Alcotest.(check bool) "summary mentions instances" true
    (contains ~needle:"hot" text && contains ~needle:"cold" text)

let test_html_report () =
  let db, counts = two_instance_run () in
  let html = Sic_coverage.Html_report.render ~line:db counts in
  Alcotest.(check bool) "is html" true (contains ~needle:"<!doctype html>" html);
  Alcotest.(check bool) "has summary tile" true (contains ~needle:"branches" html);
  Alcotest.(check bool) "escapes source" false (contains ~needle:"<fun" html);
  Alcotest.(check bool) "mentions this file" true (contains ~needle:"test_reports.ml" html)

let test_html_report_source_root () =
  (* a circuit whose cover location points at a fabricated relative path:
     the listing only shows its text when source_root points at the right
     directory *)
  let cb = Sic_ir.Dsl.create_circuit "Src" in
  Sic_ir.Dsl.module_ cb "Src" (fun m ->
      let open Sic_ir.Dsl in
      let x = input ~loc:__POS__ m "x" (Sic_ir.Ty.UInt 1) in
      let y = output ~loc:__POS__ m "y" (Sic_ir.Ty.UInt 1) in
      connect m y false_;
      when_ ~loc:("fake_src.ml", 2, 0, 0) m x (fun () -> connect m y true_));
  let c, db = Line.instrument (Sic_ir.Dsl.finalize cb) in
  let b = Compiled.create (lower c) in
  b.Backend.poke "x" (Bv.one 1);
  b.Backend.step 2;
  let counts = b.Backend.counts () in
  let root = Printf.sprintf "srcroot_%d" (Unix.getpid ()) in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let oc = open_out (Filename.concat root "fake_src.ml") in
  output_string oc "line one\nTHE_MARKER_LINE\nline three\n";
  close_out oc;
  let with_root = Sic_coverage.Html_report.render ~source_root:root ~line:db counts in
  Alcotest.(check bool) "right root shows the source line" true
    (contains ~needle:"THE_MARKER_LINE" with_root);
  let without = Sic_coverage.Html_report.render ~line:db counts in
  Alcotest.(check bool) "file name still listed under default root" true
    (contains ~needle:"fake_src.ml" without);
  Alcotest.(check bool) "default root cannot find the source" false
    (contains ~needle:"THE_MARKER_LINE" without);
  (* save plumbs the argument through *)
  let out = Filename.concat root "report.html" in
  Sic_coverage.Html_report.save out ~source_root:root ~line:db counts;
  let ic = open_in out in
  let n = in_channel_length ic in
  let saved = really_input_string ic n in
  close_in ic;
  Alcotest.(check bool) "saved report shows the source line" true
    (contains ~needle:"THE_MARKER_LINE" saved)

let test_format_print () =
  let f = Sic_sim.Backend.Prep.format_print in
  Alcotest.(check string) "decimal" "v=42!" (f "v=%d!" [ Bv.of_int ~width:8 42 ]);
  Alcotest.(check string) "hex and binary" "ff 101"
    (f "%x %b" [ Bv.of_int ~width:8 255; Bv.of_int ~width:3 5 ]);
  Alcotest.(check string) "literal percent" "100%" (f "100%%" []);
  Alcotest.(check string) "missing arg keeps placeholder" "x=%d" (f "x=%d" []);
  Alcotest.(check string) "unknown directive passes through" "%q" (f "%q" [])

let test_counts_diff () =
  let before = Counts.of_list [ ("a", 0); ("b", 3); ("c", 1); ("gone", 2) ] in
  let after = Counts.of_list [ ("a", 5); ("b", 9); ("c", 0); ("new", 1) ] in
  let d = Counts.diff ~before ~after in
  Alcotest.(check (list string)) "newly covered" [ "a"; "new" ] d.Counts.newly_covered;
  Alcotest.(check (list string)) "lost" [ "c" ] d.Counts.lost;
  Alcotest.(check (list string)) "only before" [ "gone" ] d.Counts.only_before;
  Alcotest.(check (list string)) "only after" [ "new" ] d.Counts.only_after;
  let text = Counts.render_diff d in
  Alcotest.(check bool) "renders" true (contains ~needle:"newly covered (2)" text);
  Alcotest.(check string) "no changes message" "no coverage changes\n"
    (Counts.render_diff (Counts.diff ~before ~after:before))

let test_counts_saturation () =
  Alcotest.(check int) "sat_add caps" max_int (Counts.sat_add max_int 5);
  Alcotest.(check int) "sat_add normal" 7 (Counts.sat_add 3 4);
  let t = Counts.create () in
  Counts.set t "x" (max_int - 1);
  Counts.incr t "x";
  Counts.incr t "x";
  Alcotest.(check int) "incr saturates" max_int (Counts.get t "x")

let test_fsm_report_missing () =
  let c, _ = fsm_circuit () in
  let low = lower c in
  let low, db = Sic_coverage.Fsm_coverage.instrument low in
  let b = Compiled.create low in
  Backend.reset_sequence b;
  (* stay in A forever: only A-state and A->A are covered *)
  b.Backend.poke "in" (Bv.one 1);
  b.Backend.step 5;
  let r = Sic_coverage.Fsm_coverage.report db (b.Backend.counts ()) in
  Alcotest.(check int) "one state covered" 1 r.Sic_coverage.Fsm_coverage.states_covered;
  Alcotest.(check bool) "missing list populated" true
    (List.length r.Sic_coverage.Fsm_coverage.missing >= 6)

let test_scan_chain_width_one () =
  (* 1-bit counters: the count is a saw of covered/not; scan still works *)
  let c, _db = Line.instrument (gcd_circuit ()) in
  let low = lower c in
  let chained, chain = Sic_firesim.Scan_chain.insert ~width:1 low in
  let b = Compiled.create chained in
  let r =
    Sic_firesim.Driver.run_and_scan b chain ~workload:(fun b -> ignore (run_gcd b 9 6))
  in
  Alcotest.(check int) "scan cost = n points" (List.length chain.Sic_firesim.Scan_chain.order)
    r.Sic_firesim.Driver.scan_cycles;
  List.iter
    (fun name ->
      Alcotest.(check bool) "1-bit counts are 0/1" true
        (Counts.get r.Sic_firesim.Driver.counts name <= 1))
    chain.Sic_firesim.Scan_chain.order

let tests =
  [
    Alcotest.test_case "per-module summary" `Quick test_module_summary;
    Alcotest.test_case "html report" `Quick test_html_report;
    Alcotest.test_case "html report source_root" `Quick test_html_report_source_root;
    Alcotest.test_case "printf formatting" `Quick test_format_print;
    Alcotest.test_case "counts saturation" `Quick test_counts_saturation;
    Alcotest.test_case "counts diff" `Quick test_counts_diff;
    Alcotest.test_case "fsm report missing list" `Quick test_fsm_report_missing;
    Alcotest.test_case "scan chain width 1" `Quick test_scan_chain_width_one;
  ]
