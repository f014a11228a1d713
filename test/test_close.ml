(** Tests for the coverage-closure loop (lib/close) and its supporting
    plumbing: replay-trace text round-trips, witness-to-fuzz-seed
    re-encoding, the witness differential (a BMC trace replays to the
    same counts on every backend and actually fires its target), corpus
    persistence, the exclusion artifact, and the headline acceptance
    property — closing the fixture design to a fixpoint with database
    bytes independent of -j. *)

module Counts = Sic_coverage.Counts
module Line = Sic_coverage.Line_coverage
module Db = Sic_db.Db
module Close = Sic_close.Close
module Fuzzer = Sic_fuzz.Fuzzer
module Bmc = Sic_formal.Bmc
module Replay = Sic_sim.Replay
open Helpers

(* the closure fixture, line-instrumented and lowered — 8 points: 6
   reachable (one only at BMC depth 4), 2 provably dead *)
let closefix () = lower (fst (Line.instrument (Sic_designs.Closefix.circuit ())))

let trace_equal (a : Replay.trace) (b : Replay.trace) =
  a.Replay.input_names = b.Replay.input_names
  && Array.length a.Replay.frames = Array.length b.Replay.frames
  && Array.for_all2 (fun fa fb -> Array.for_all2 Sic_bv.Bv.equal fa fb) a.Replay.frames
       b.Replay.frames

let deep_witness () =
  let low = closefix () in
  match Bmc.check_covers ~bound:8 ~covers:[ "deep" ] low with
  | { Bmc.results = [ (_, Bmc.Reachable tr) ]; _ } -> (low, tr)
  | _ -> Alcotest.fail "BMC found no witness for the deep point"

let test_trace_text_round_trip () =
  let _, tr = deep_witness () in
  let tr' = Replay.of_string (Replay.to_string tr) in
  Alcotest.(check bool) "trace survives to_string/of_string" true (trace_equal tr tr');
  (* malformed inputs are rejected with a parse error, not a crash *)
  List.iter
    (fun bad ->
      match Replay.of_string bad with
      | exception Replay.Bad_format _ -> ()
      | _ -> Alcotest.fail "malformed trace accepted")
    [ ""; "# wrong header\ninputs a\nframes 0"; Replay.format_header ^ "\ninputs a\nframes 2\n1" ]

let test_witness_differential () =
  (* the witness must fire its target and harvest identically on both
     reference backends — the replay-confirm step close relies on *)
  let low, tr = deep_witness () in
  let harvest create =
    let b = create low in
    Replay.replay b tr;
    b.Sic_sim.Backend.counts ()
  in
  let compiled = harvest (fun c -> Sic_sim.Compiled.create c) in
  let interp = harvest Sic_sim.Interp.create in
  Alcotest.(check bool) "compiled = interp under witness replay" true
    (Counts.equal compiled interp);
  Alcotest.(check bool) "witness fires its target" true (Counts.get compiled "deep" > 0)

let test_witness_as_fuzz_seed () =
  (* input_of_trace must re-encode the witness so the fuzzer harness's
     own unpacking reaches the same state: random fuzzing essentially
     never finds deep (p ~ 2^-24 per window), the seed must *)
  let low, tr = deep_witness () in
  let h = Fuzzer.make_harness low in
  let seed = Fuzzer.input_of_trace h tr in
  let counts = Fuzzer.execute h seed in
  Alcotest.(check bool) "witness seed covers the deep point" true
    (Counts.get counts "deep" > 0)

let test_corpus_round_trip () =
  let dir = fresh_dir "close_corpus" in
  let seeds = [ Bytes.of_string "\x00\xa5\x5a"; Bytes.of_string "\xc3"; Bytes.create 0 ] in
  Fuzzer.save_corpus dir seeds;
  Alcotest.(check (list string)) "corpus round-trips in order"
    (List.map Bytes.to_string seeds)
    (List.map Bytes.to_string (Fuzzer.load_corpus dir));
  (* saving again mirrors the new list exactly (stale files removed) *)
  Fuzzer.save_corpus dir [ Bytes.of_string "x" ];
  Alcotest.(check int) "resave replaces" 1 (List.length (Fuzzer.load_corpus dir));
  Alcotest.(check (list string)) "missing dir is empty" []
    (List.map Bytes.to_string (Fuzzer.load_corpus (fresh_dir "close_nodir")))

let close_design ~design ~circuit ~bound ~jobs dir =
  let db = Db.init dir in
  let config = { (Close.default_config ~design ~circuit) with bound; jobs } in
  (Close.close ~db config, db)

let close_fixture ~jobs dir =
  close_design ~design:"closefix" ~circuit:(closefix ()) ~bound:8 ~jobs dir

let test_close_reaches_fixpoint () =
  let dir = fresh_dir "close_fix" in
  let o, db = close_fixture ~jobs:1 dir in
  Alcotest.(check bool) "fixpoint reached" true o.Close.fixpoint;
  Alcotest.(check int) "no open points" 0 o.Close.points_open;
  Alcotest.(check int) "both dead points excluded" 2 o.Close.points_excluded;
  Alcotest.(check int) "the rest covered" 6 o.Close.points_covered;
  Alcotest.(check bool) "witness seeds harvested" true (o.Close.corpus <> []);
  (* the closed database reports 100% of the non-excluded points *)
  let report = Db.render_report db in
  Alcotest.(check bool) "report shows full coverage" true
    (contains ~needle:"(100.0%)" report);
  Alcotest.(check bool) "report lists exclusions" true
    (contains ~needle:"proven unreachable" report);
  (* rank's target honors the exclusions: the pick covers everything *)
  Alcotest.(check bool) "rank converges on the closed db" true
    (contains ~needle:"\"uncovered\":[]" (Sic_obs.Json.to_string (Db.rank_json db)))

(* close [design] at -j 1 and -j 4: every database file must be
   byte-identical; returns the -j 1 outcome *)
let check_db_bytes_j_independent ~design ~circuit ~bound =
  let dir1 = fresh_dir (design ^ "_j1") and dir4 = fresh_dir (design ^ "_j4") in
  let o, _ = close_design ~design ~circuit ~bound ~jobs:1 dir1 in
  let _ = close_design ~design ~circuit ~bound ~jobs:4 dir4 in
  let listing dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let files1 = List.filter (fun f -> f <> "lock") (listing dir1) in
  Alcotest.(check (list string)) "same files at -j1 and -j4" files1
    (List.filter (fun f -> f <> "lock") (listing dir4));
  Alcotest.(check bool) "exclusion artifact present" true
    (List.mem "exclusions.ndjson" files1);
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%s byte-identical across -j" f)
        (read_file (Filename.concat dir1 f))
        (read_file (Filename.concat dir4 f)))
    files1;
  let bytes =
    List.map (fun f -> f ^ "\n" ^ read_file (Filename.concat dir1 f)) files1 |> String.concat ""
  in
  (o, Digest.to_hex (Digest.string bytes))

let test_close_db_bytes_j_independent () =
  ignore (check_db_bytes_j_independent ~design:"closefix" ~circuit:(closefix ()) ~bound:8)

(* the same at a realistic size: uart at bound 20, 31 single-point jobs *)
let test_close_uart_j_independent () =
  let circuit = lower (fst (Line.instrument (Sic_designs.Uart.circuit ()))) in
  let o, bytes = check_db_bytes_j_independent ~design:"uart" ~circuit ~bound:20 in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 o.Close.waves in
  Alcotest.(check int) "22 points witnessed" 22 (sum (fun w -> w.Close.witnessed));
  Alcotest.(check int) "9 points excluded" 9 (sum (fun w -> w.Close.excluded));
  (* recorded before the solver's clauses moved into one int arena: the
     same search finds the same witnesses, so the same database *)
  Alcotest.(check string) "database bytes pinned" "d2da8fab4fa0aa5125d9571d420546ae" bytes

let test_exclusions_idempotent () =
  let dir = fresh_dir "close_excl" in
  let db = Db.init dir in
  let ex name = { Db.ex_name = name; ex_reason = "test"; ex_design = "d"; ex_wave = 0 } in
  Db.add_exclusions db [ ex "a"; ex "b"; ex "a" ];
  Db.add_exclusions db [ ex "b"; ex "c" ];
  Alcotest.(check (list string)) "dedup within and across batches" [ "a"; "b"; "c" ]
    (Db.excluded_names db);
  (* and the artifact reloads to the same view *)
  Alcotest.(check (list string)) "artifact reloads" [ "a"; "b"; "c" ]
    (Db.excluded_names (Db.load dir));
  (* rank drops excluded points from its target *)
  ignore
    (Db.add db ~design:"d" ~backend:"compiled" ~workload:"random" ~seed:0 ~cycles:1
       (Ok (Counts.of_list [ ("a", 0); ("covered", 3) ])));
  let j = Sic_obs.Json.to_string (Db.rank_json db) in
  Alcotest.(check bool) "excluded point not counted uncovered" false
    (contains ~needle:"\"uncovered\":[\"a\"]" j);
  Alcotest.(check bool) "excluded list serialized" true
    (contains ~needle:"\"excluded\":[\"a\",\"b\",\"c\"]" j)

let tests =
  [
    Alcotest.test_case "trace text round-trip" `Quick test_trace_text_round_trip;
    Alcotest.test_case "witness differential" `Quick test_witness_differential;
    Alcotest.test_case "witness as fuzz seed" `Quick test_witness_as_fuzz_seed;
    Alcotest.test_case "corpus round-trip" `Quick test_corpus_round_trip;
    Alcotest.test_case "close reaches fixpoint" `Quick test_close_reaches_fixpoint;
    Alcotest.test_case "close db bytes -j independent" `Quick
      test_close_db_bytes_j_independent;
    Alcotest.test_case "close uart db bytes -j independent" `Quick
      test_close_uart_j_independent;
    Alcotest.test_case "exclusions idempotent" `Quick test_exclusions_idempotent;
  ]
