(** Engine profiler tests: the artifact format round-trips byte-exactly,
    merge is a positional pointwise sum that rejects shape mismatches, the
    word-level profiler's per-statement hit counts agree with the
    interpreter's value-change counter, and the artifact bytes are
    deterministic — independent of the [~activity] flag and of whether
    timing sampling is on. *)

module Bv = Sic_bv.Bv
open Helpers
open Sic_sim

(* drive a backend with deterministic pseudo-random inputs; the exact
   poke/step sequence is what both engines must see to be comparable *)
let drive (b : Backend.t) ~seed ~cycles =
  Backend.reset_sequence b;
  Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create seed)) ~cycles b

let profiled_run ?(activity = false) ?(mode = Compiled.Counts_only) c ~seed ~cycles =
  let sim = Compiled.build ~activity ~profile:mode (lower c) in
  drive (Compiled.to_backend ~name:"compiled" sim) ~seed ~cycles;
  match Compiled.profile sim with
  | Some dp -> dp
  | None -> Alcotest.fail "profiled build returned no profile"

(* --- artifact format --------------------------------------------------- *)

let test_format_roundtrip () =
  let dp = profiled_run (gcd_circuit ()) ~mode:(Compiled.Sampled 3) ~seed:7 ~cycles:50 in
  let p = [ dp ] in
  let s = Profile.to_string p in
  let p' = Profile.of_string s in
  Alcotest.(check string) "to_string . of_string is the identity" s (Profile.to_string p');
  Alcotest.(check bool) "rows survived" true
    (match p' with [ d ] -> Array.length d.Profile.rows = Array.length dp.Profile.rows | _ -> false);
  Alcotest.(check bool) "some instruction was hit" true
    (Array.exists (fun (r : Profile.row) -> r.Profile.hits > 0) dp.Profile.rows);
  Alcotest.(check bool) "sampling recorded time" true (Profile.sampled dp);
  (* render and folded never fail on a real profile *)
  Alcotest.(check bool) "render is non-empty" true (String.length (Profile.render p) > 0);
  Alcotest.(check bool) "folded is non-empty" true (String.length (Profile.folded p) > 0)

let test_bad_format () =
  (match Profile.of_string "# sic profile v99\n" with
  | _ -> Alcotest.fail "unknown version must raise"
  | exception Profile.Bad_format _ -> ());
  match Profile.of_string "# sic profile v1\nd g 1 1\nnot a row\n" with
  | _ -> Alcotest.fail "malformed row must raise"
  | exception Profile.Bad_format _ -> ()

let test_merge () =
  let dp = profiled_run (gcd_circuit ()) ~seed:3 ~cycles:40 in
  let doubled =
    match Profile.merge [ [ dp ]; [ dp ] ] with
    | [ d ] -> d
    | _ -> Alcotest.fail "merge of one design yields one design"
  in
  Array.iteri
    (fun i (r : Profile.row) ->
      Alcotest.(check int)
        (Printf.sprintf "row %d hits doubled" i)
        (2 * r.Profile.hits) doubled.Profile.rows.(i).Profile.hits)
    dp.Profile.rows;
  Alcotest.(check int) "runs summed" (2 * dp.Profile.runs) doubled.Profile.runs;
  (* mismatched tape shapes for the same design are corruption, not data *)
  let truncated =
    { dp with Profile.rows = Array.sub dp.Profile.rows 0 (Array.length dp.Profile.rows - 1) }
  in
  match Profile.merge [ [ dp ]; [ truncated ] ] with
  | _ -> Alcotest.fail "shape mismatch must raise"
  | exception Profile.Bad_format _ -> ()

(* --- differential: hit counts vs the interpreter ------------------------ *)

(* Both engines count value changes per named statement, so wherever a
   statement has a row in both (the word-level engine eliminates pure
   copies; the interpreter has no register rows) the counts must be
   identical. Profiling must not perturb coverage either: the profiled
   interpreter's counts equal a plain interpreter's on the same drive. *)
let check_against_interp name c =
  let seed = 11 and cycles = 60 in
  let dp = profiled_run c ~seed ~cycles in
  let compiled_hits = Hashtbl.create 64 in
  Array.iter
    (fun (r : Profile.row) ->
      if r.Profile.is_root then Hashtbl.replace compiled_hits r.Profile.root r.Profile.hits)
    dp.Profile.rows;
  let profiled, hit_counts = Interp.create_profiled (lower c) in
  drive profiled ~seed ~cycles;
  let plain = Interp.create (lower c) in
  drive plain ~seed ~cycles;
  Alcotest.(check bool)
    (Printf.sprintf "%s: profiling leaves coverage unchanged" name)
    true
    (Sic_coverage.Counts.equal (plain.Backend.counts ()) (profiled.Backend.counts ()));
  let compared = ref 0 in
  List.iter
    (fun (stmt, ref_count) ->
      match Hashtbl.find_opt compiled_hits stmt with
      | None -> ()
      | Some cc ->
          incr compared;
          Alcotest.(check int) (Printf.sprintf "%s: hits of %s" name stmt) ref_count cc)
    (hit_counts ());
  Alcotest.(check bool)
    (Printf.sprintf "%s: compared a real set of statements (%d)" name !compared)
    true (!compared >= 3)

let test_hits_match_interp () =
  List.iter
    (fun (name, c) -> check_against_interp name c)
    [
      ("gcd", gcd_circuit ());
      ("fifo", Sic_designs.Fifo.circuit ());
      ("arbiter", Sic_designs.Arbiter.circuit ());
    ]

(* --- the interpreter's counter on its own ------------------------------ *)

(* A free-running 4-bit counter, whose every hit count follows from the
   definition: one sample per edge, against the previous edge's value,
   starting from zero. *)
let test_interp_hits_exact () =
  let cb = Sic_ir.Dsl.create_circuit "Ticker" in
  Sic_ir.Dsl.module_ cb "Ticker" (fun m ->
      let open Sic_ir.Dsl in
      let r = reg_ m "r" (Sic_ir.Ty.UInt 4) in
      connect m r (node m "inc" (bits_s (r +: lit 4 1) ~hi:3 ~lo:0));
      connect m (output m "msb" (Sic_ir.Ty.UInt 1)) (bit_s r 3);
      connect m (output m "one" (Sic_ir.Ty.UInt 1)) true_);
  let b, hit_counts = Interp.create_profiled (lower (Sic_ir.Dsl.finalize cb)) in
  let hits stmt =
    match List.assoc_opt stmt (hit_counts ()) with
    | Some n -> n
    | None -> Alcotest.failf "no hit row for %s" stmt
  in
  Alcotest.(check (list int)) "zero before the first edge" [ 0; 0; 0 ]
    (List.map hits [ "inc"; "msb"; "one" ]);
  Alcotest.(check bool) "registers have no row" false (List.mem_assoc "r" (hit_counts ()));
  b.Backend.step 12;
  (* inc changes at every edge; msb rises once (r = 8); one leaves zero once *)
  Alcotest.(check (list int)) "hits after 12 edges" [ 12; 1; 1 ]
    (List.map hits [ "inc"; "msb"; "one" ])

(* Sampling happens at the clock edge only: peeking every signal between
   edges (which forces evaluation mid-cycle) must not add hits. *)
let test_interp_hits_ignore_peeks () =
  let c = lower (gcd_circuit ()) in
  let run ~peek =
    let b, hit_counts = Interp.create_profiled c in
    let bits = Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create 5) in
    Backend.reset_sequence b;
    for _ = 1 to 40 do
      List.iter
        (fun (n, ty) -> b.Backend.poke n (Bv.random ~width:(Sic_ir.Ty.width ty) bits))
        (Backend.data_inputs b);
      if peek then List.iter (fun (n, _) -> ignore (b.Backend.peek n)) (hit_counts ());
      b.Backend.step 1
    done;
    hit_counts ()
  in
  Alcotest.(check (list (pair string int))) "same hits" (run ~peek:false) (run ~peek:true)

let interp_hits_bounded =
  QCheck.Test.make ~count:20 ~name:"interp hit counts never exceed the edges run"
    QCheck.(pair (int_bound 1000) (int_range 1 50))
    (fun (seed, cycles) ->
      let b, hit_counts = Interp.create_profiled (lower (Sic_designs.Fifo.circuit ())) in
      drive b ~seed ~cycles;
      List.for_all (fun (_, n) -> n >= 0 && n <= cycles + 1) (hit_counts ()))

(* --- determinism ------------------------------------------------------- *)

(* Same design, seed and cycle count must produce byte-identical artifacts
   whatever the engine configuration: the [~activity] flag (profiled builds
   always run the change-driven schedule) and — for the hit columns —
   whether timing sampling is on. *)
let artifact_deterministic =
  let designs =
    [|
      ("gcd", fun () -> gcd_circuit ());
      ("fifo", fun () -> Sic_designs.Fifo.circuit ());
      ("counter", fun () -> Sic_designs.Counter.circuit ());
    |]
  in
  QCheck.Test.make ~count:20 ~name:"profile artifact bytes are schedule-independent"
    QCheck.(triple (int_bound 2) (int_bound 1000) (int_range 1 60))
    (fun (di, seed, cycles) ->
      let _, build = designs.(di) in
      let run ~activity ~mode = profiled_run ~activity ~mode (build ()) ~seed ~cycles in
      let plain = run ~activity:false ~mode:Compiled.Counts_only in
      let act = run ~activity:true ~mode:Compiled.Counts_only in
      let sampled = run ~activity:false ~mode:(Compiled.Sampled 2) in
      Profile.to_string [ plain ] = Profile.to_string [ act ]
      && Array.for_all2
           (fun (a : Profile.row) (b : Profile.row) -> a.Profile.hits = b.Profile.hits)
           plain.Profile.rows sampled.Profile.rows)

let tests =
  [
    Alcotest.test_case "artifact round-trips byte-exactly" `Quick test_format_roundtrip;
    Alcotest.test_case "malformed artifacts raise Bad_format" `Quick test_bad_format;
    Alcotest.test_case "merge sums pointwise, rejects shape mismatch" `Quick test_merge;
    Alcotest.test_case "hit counts agree with the interpreter" `Quick test_hits_match_interp;
    Alcotest.test_case "interp hit counts are exact on a counter" `Quick test_interp_hits_exact;
    Alcotest.test_case "interp hit counts ignore peeks between edges" `Quick
      test_interp_hits_ignore_peeks;
    QCheck_alcotest.to_alcotest interp_hits_bounded;
    QCheck_alcotest.to_alcotest artifact_deterministic;
  ]
