(* The benchmark's own arithmetic, on hand-checked inputs. *)

let feq = Alcotest.float 1e-9
let span ?(parent = -1) ~id name t0 t1 =
  { Trace.id; name; parent; track = 1; t0; t1; attributed = false; charged = [] }

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let test_percentile_rule () =
  let open Stats in
  Alcotest.(check (option feq)) "p50 of 20 has 10 beyond" (Some 10.) (percentile (ramp 20) 50.);
  Alcotest.(check (option feq)) "p50 of 19 has 9 beyond" None (percentile (ramp 19) 50.);
  Alcotest.(check (option feq)) "p90 of 100" (Some 90.) (percentile (ramp 100) 90.);
  Alcotest.(check (option feq)) "p90 of 99" None (percentile (ramp 99) 90.);
  Alcotest.(check (option feq)) "p99 of 1000" (Some 990.) (percentile (ramp 1000) 99.);
  Alcotest.(check (option feq)) "p99 of 999" None (percentile (ramp 999) 99.);
  Alcotest.(check (option feq)) "empty" None (percentile [||] 50.)

let test_median () =
  Alcotest.check feq "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

let test_quiet () =
  let ids l = List.map fst l in
  let rounds = [ (0, 1.0); (1, 3.0); (2, 1.1); (3, 2.5); (4, 0.9) ] in
  Alcotest.(check (list int)) "faster half, odd count rounds up" [ 4; 0; 2 ]
    (ids (Stats.quiet ~seconds:snd rounds));
  (* 4 ops per round: the fastest 3 rounds hold 12 < 20, so two more join *)
  Alcotest.(check (list int)) "extended to 20 operations" [ 4; 0; 2; 3; 1 ]
    (ids (Stats.quiet ~seconds:snd ~ops:(fun _ -> 4) rounds));
  Alcotest.(check (list int)) "enough operations already" [ 4; 0; 2 ]
    (ids (Stats.quiet ~seconds:snd ~ops:(fun _ -> 10) rounds));
  Alcotest.check feq "quiet median of set-ups" 1.0 (Stats.quiet_median [| 3.; 1.; 9.; 1.1; 0.9 |])

let test_self_time () =
  (* parent [0,10]; two overlapping children [1,3] and [2,5] cover 4 s;
     a grandchild [1.5,2] inside the first; a child running past the
     parent's end is clipped; 1 s of charged calls *)
  let parent = span ~id:0 "round" 0. 10. in
  parent.Trace.charged <- [ ("sim.step", 1.) ];
  let all =
    [
      parent;
      span ~id:1 ~parent:0 "a" 1. 3.;
      span ~id:2 ~parent:0 "b" 2. 5.;
      span ~id:3 ~parent:1 "c" 1.5 2.;
      span ~id:4 ~parent:0 "d" 9. 12.;
    ]
  in
  let self = Trace.self_times all in
  Alcotest.check feq "parent: 10 - 5 covered - 1 charged" 4. (Hashtbl.find self 0);
  Alcotest.check feq "nested child" 1.5 (Hashtbl.find self 1);
  Alcotest.check feq "overlapping sibling keeps its own length" 3. (Hashtbl.find self 2);
  Alcotest.check feq "union of overlaps" 4. (Trace.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 5.) ]);
  Alcotest.check feq "disjoint" 3. (Trace.covered ~lo:0. ~hi:10. [ (1., 2.); (4., 6.) ]);
  Alcotest.check feq "never negative" 0.
    (Hashtbl.find (Trace.self_times [ span ~id:0 "x" 0. 1.; span ~id:1 ~parent:0 "y" 0. 1.5 ]) 0)

let test_layer_totals () =
  let r = span ~id:0 "round" 0. 10. in
  r.Trace.charged <- [ ("sim.step", 2.) ];
  let all =
    [ r; span ~id:1 ~parent:0 "sim.build" 1. 4.; span ~id:2 "setup" 20. 30.; span ~id:3 ~parent:2 "sim.build" 20. 25. ]
  in
  let totals, denom = Trace.layer_totals ~root:"round" ~layer_of:(function "round" -> "loop" | n -> n) all in
  Alcotest.check feq "denominator is the rounds only" 10. denom;
  Alcotest.(check (list (pair string feq)))
    "self time per layer, charged time to its own layer"
    [ ("loop", 5.); ("sim.build", 3.); ("sim.step", 2.) ]
    totals

let test_fail_ratio () =
  let req ?(ok = true) due sent finished = { Stats.due; sent; finished; ok } in
  let rs =
    [|
      req 0. 0. 0.1;
      req 1. 1. 1.2;
      req 2. 2.05 2.3;
      req ~ok:false 3. 3. 3.01 (* refused, fast *);
      req 4. 4.6 4.7 (* sent late: 0.7 s from due *);
    |]
  in
  Alcotest.check feq "refused request is infinitely late" infinity (Stats.latency rs.(3));
  Alcotest.(check int) "refused and over-limit both fail" 2 (Stats.count_failed ~limit:0.5 rs);
  Alcotest.check feq "fail ratio" 0.4 (Stats.fail_ratio ~attempted:5 ~failed:(Stats.count_failed ~limit:0.5 rs));
  Alcotest.check_raises "nothing attempted" (Invalid_argument "Stats.fail_ratio: nothing attempted")
    (fun () -> ignore (Stats.fail_ratio ~attempted:0 ~failed:0))

let test_open_loop () =
  let r = { Stats.due = 1.0; sent = 1.25; finished = 1.5; ok = true } in
  Alcotest.check feq "latency from due, not from send" 0.5 (Stats.latency r);
  Alcotest.check feq "generator lateness" 0.25 (Stats.lateness r);
  (* a refused request sits above every finite latency in the tail *)
  let lat = Array.init 20 (fun i -> if i = 0 then Stats.latency { r with ok = false } else float_of_int i) in
  Alcotest.(check (option feq)) "p50 unaffected" (Some 10.) (Stats.percentile lat 50.);
  Alcotest.check feq "max is the refusal" infinity (Stats.sorted lat).(19)

let test_chrome_export () =
  let all = [ span ~id:0 "round" 0. 1.; span ~id:1 ~parent:0 "sim.build" 0.25 0.5 ] in
  let j = Sic_obs.Json.parse (Trace.to_chrome_json ~track_names:[ (1, "main") ] all) in
  match Sic_obs.Json.member "traceEvents" j with
  | Some (Sic_obs.Json.List evs) ->
      Alcotest.(check int) "metadata + two spans" 3 (List.length evs);
      let build = List.nth evs 2 in
      Alcotest.(check (option string)) "complete event" (Some "X") (Sic_obs.Json.string_member "ph" build);
      Alcotest.(check (option (float 1e-6))) "ts in us from the first span" (Some 250000.)
        (Sic_obs.Json.float_member "ts" build);
      Alcotest.(check (option (float 1e-6))) "dur in us" (Some 250000.) (Sic_obs.Json.float_member "dur" build)
  | _ -> Alcotest.fail "no traceEvents"

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile needs ten samples beyond" `Quick test_percentile_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quiet rounds" `Quick test_quiet;
          Alcotest.test_case "fail ratio counts refusals as over the limit" `Quick test_fail_ratio;
          Alcotest.test_case "open-loop latency from due time, and lateness" `Quick test_open_loop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time with nested and overlapping children" `Quick test_self_time;
          Alcotest.test_case "layer totals over rounds only" `Quick test_layer_totals;
          Alcotest.test_case "chrome trace export" `Quick test_chrome_export;
        ] );
    ]
