(** Tests for the coverage-directed fuzzer (§5.4). *)

module Counts = Sic_coverage.Counts
module F = Sic_fuzz.Fuzzer

let i2c_line_harness () =
  let c, db = Sic_coverage.Line_coverage.instrument (Sic_designs.I2c.circuit ()) in
  (F.make_harness (Sic_passes.Compile.lower c), db)

(* digests of a run's corpus bytes (each input length-prefixed) and of its
   cumulative counts in the on-disk format *)
let corpus_digest (r : F.result) =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun b -> Printf.sprintf "%d:%s" (Bytes.length b) (Bytes.to_string b)) r.F.corpus)))

let counts_digest (r : F.result) =
  Digest.to_hex (Digest.string (Counts.to_string r.F.final.F.cumulative))

let history_equal (a : F.result) (b : F.result) =
  List.equal (fun (ea, ca) (eb, cb) -> ea = eb && Counts.equal ca cb) a.F.history b.F.history

(* Two runs on one harness: the second executes on an engine restored
   after the first, and must still reproduce it byte for byte. *)
let test_deterministic () =
  let h, _ = i2c_line_harness () in
  let r1 = F.run ~seed:42 ~execs:60 h in
  let r2 = F.run ~seed:42 ~execs:60 h in
  Alcotest.(check int) "same corpus size" r1.F.final.F.corpus_size r2.F.final.F.corpus_size;
  Alcotest.(check (list bytes)) "same corpus bytes" r1.F.corpus r2.F.corpus;
  Alcotest.(check bool) "same cumulative counts" true
    (Counts.equal r1.F.final.F.cumulative r2.F.final.F.cumulative);
  Alcotest.(check bool) "same history" true (history_equal r1 r2)

(* The fuzzer's output for fixed seeds, pinned as digests: a change to the
   harness (engine reuse, input unpacking) must not move a single byte. *)
let test_pinned_outputs () =
  let check name r (corpus, counts) =
    Alcotest.(check string) (name ^ " corpus") corpus (corpus_digest r);
    Alcotest.(check string) (name ^ " counts") counts (counts_digest r)
  in
  let h, _ = i2c_line_harness () in
  List.iter
    (fun (seed, expected) -> check (Printf.sprintf "i2c seed %d" seed) (F.run ~seed ~execs:60 h) expected)
    [
      (1, ("614d40c4d1bd0c17cd1fd6c58b2da6fb", "a6754e36d764bace801f2e08b31933ca"));
      (2, ("5f0594352e5697027b38ac38f9f111e7", "22c7fdbbf5cfb9ad024be9d4c7d8070a"));
      (3, ("e89781df169c2f555651b33457823193", "6f66d5ae610cd265576df11b9f3f493b"));
    ];
  let rv =
    F.make_harness
      (Sic_passes.Compile.lower
         (fst (Sic_coverage.Line_coverage.instrument (Sic_designs.Riscv_mini.circuit ()))))
  in
  List.iter
    (fun (seed, expected) ->
      check
        (Printf.sprintf "riscv-mini seed %d" seed)
        (F.run ~seed ~execs:40 ~seed_cycles:32 ~max_cycles:128 rv)
        expected)
    [
      (1, ("6b2f3ef5f6fe969fa2a28bc8b590d92d", "6be6497dd6a6e9b1f0074e0e949ab633"));
      (2, ("8c9ba02489b58787607d294a3d056f8b", "6d3ac619538a09b67afa7789b683f030"));
    ]

let test_coverage_grows () =
  let h, db = i2c_line_harness () in
  let r = F.run ~seed:7 ~execs:150 h in
  (* coverage history is monotone (cumulative merge) *)
  let covered c = Counts.covered_points c in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> covered a <= covered b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "history monotone" true (monotone r.F.history);
  (* fuzzing must beat the all-zeros seed input *)
  let zero_counts =
    F.execute h (Bytes.make (h.F.bytes_per_cycle * 4) '\000')
  in
  Alcotest.(check bool) "beats the zero seed" true
    (covered r.F.final.F.cumulative > covered zero_counts);
  Alcotest.(check bool) "corpus grew" true (r.F.final.F.corpus_size > 1);
  (* the report generator still understands fuzzer-produced counts *)
  let report = Sic_coverage.Line_coverage.report db r.F.final.F.cumulative in
  Alcotest.(check bool) "line report works on fuzz counts" true
    (report.Sic_coverage.Line_coverage.branches_covered > 0)

let test_feedback_is_pluggable () =
  (* the same loop runs with mux-toggle feedback instead of line coverage:
     the paper's "mix and match metrics" claim *)
  let low = Sic_passes.Compile.lower (Sic_designs.I2c.circuit ()) in
  let mux_instr, _db = Sic_coverage.Mux_coverage.instrument low in
  let h = F.make_harness mux_instr in
  let r = F.run ~seed:3 ~execs:60 h in
  Alcotest.(check bool) "mux-feedback fuzzing runs and finds pairs" true
    (r.F.final.F.seen_pairs > 0)

let test_mutator_bounds =
  QCheck.Test.make ~count:200 ~name:"mutator output stays non-empty"
    QCheck.(pair small_int (string_of_size (QCheck.Gen.int_range 1 64)))
    (fun (seed, s) ->
      let rng = Sic_fuzz.Rng.create seed in
      let out = F.mutate rng [| Bytes.of_string s |] (Bytes.of_string s) in
      Bytes.length out > 0)

let test_rng_deterministic () =
  let a = Sic_fuzz.Rng.create 99 and b = Sic_fuzz.Rng.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sic_fuzz.Rng.int a 1000) (Sic_fuzz.Rng.int b 1000)
  done

let test_trim () =
  let h, _ = i2c_line_harness () in
  (* a long input whose useful part is a single command early on *)
  let rng = Sic_fuzz.Rng.create 4 in
  let long = Bytes.init (h.F.bytes_per_cycle * 80) (fun _ -> Char.chr (Sic_fuzz.Rng.byte rng)) in
  let trimmed = F.trim h long in
  Alcotest.(check bool) "trim shrinks" true (Bytes.length trimmed <= Bytes.length long);
  Alcotest.(check bool) "multiple of cycle size" true
    (Bytes.length trimmed mod h.F.bytes_per_cycle = 0);
  (* signature preserved: every pair of the original is still covered *)
  let original_sig = F.signature (F.execute h long) in
  let trimmed_sig = F.signature (F.execute h trimmed) in
  List.iter
    (fun pair ->
      Alcotest.(check bool) "signature pair preserved" true (List.mem pair trimmed_sig))
    original_sig;
  (* idempotence: trimming again changes nothing further *)
  Alcotest.(check int) "idempotent" (Bytes.length trimmed)
    (Bytes.length (F.trim h trimmed))

let tests =
  [
    Alcotest.test_case "corpus trimming" `Quick test_trim;
    Alcotest.test_case "deterministic from seed" `Quick test_deterministic;
    Alcotest.test_case "pinned outputs" `Quick test_pinned_outputs;
    Alcotest.test_case "coverage grows" `Quick test_coverage_grows;
    Alcotest.test_case "feedback metric pluggable" `Quick test_feedback_is_pluggable;
    QCheck_alcotest.to_alcotest test_mutator_bounds;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
  ]
