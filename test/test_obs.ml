(** Unit tests for the telemetry layer: span nesting with a deterministic
    clock, histogram percentiles, counter accumulation, the runtime text
    sink, and a JSON / trace-event round-trip through the parser. *)

module Obs = Sic_obs.Obs
module Json = Sic_obs.Json

(* A deterministic clock: every reading advances by [tick] seconds, so
   every span lasts an exact, known number of microseconds. *)
let with_fake_clock ?(tick = 0.001) f =
  let t = ref 0. in
  Obs.set_clock (fun () ->
      let v = !t in
      t := v +. tick;
      v);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock Unix.gettimeofday;
      Obs.disable ();
      Obs.reset ())
    f

let spans () =
  List.filter_map
    (fun (e : Obs.event) -> match e with Obs.Span _ -> Some e | _ -> None)
    (Obs.events ())

let test_disabled_is_transparent () =
  Obs.reset ();
  Obs.disable ();
  let r = Obs.span "ghost" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Obs.gauge "ghost" 1.;
  Obs.instant "ghost";
  Obs.count "ghost";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.events ()));
  Alcotest.(check int) "no counter" 0 (Obs.counter_value "ghost")

let test_span_nesting () =
  with_fake_clock (fun () ->
      Obs.enable ();
      let r =
        Obs.span "outer" (fun () ->
            Obs.span "inner_a" (fun () -> ());
            Obs.span "inner_b" (fun () -> 17))
      in
      Alcotest.(check int) "result" 17 r;
      match spans () with
      | [ Obs.Span a; Obs.Span b; Obs.Span outer ] ->
          Alcotest.(check string) "inner_a closes first" "inner_a" a.name;
          Alcotest.(check string) "inner_b closes second" "inner_b" b.name;
          Alcotest.(check string) "outer closes last" "outer" outer.name;
          Alcotest.(check int) "outer at depth 0" 0 outer.depth;
          Alcotest.(check int) "inner_a nested" 1 a.depth;
          Alcotest.(check int) "inner_b nested" 1 b.depth;
          Alcotest.(check bool) "inner_a within outer" true
            (a.start_us >= outer.start_us
            && a.start_us +. a.dur_us <= outer.start_us +. outer.dur_us);
          Alcotest.(check bool) "inners are ordered" true
            (b.start_us >= a.start_us +. a.dur_us)
      | es -> Alcotest.failf "expected 3 spans, got %d" (List.length es))

let test_span_exception () =
  with_fake_clock (fun () ->
      Obs.enable ();
      (try Obs.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
      Obs.span "after" (fun () -> ());
      match spans () with
      | [ Obs.Span boom; Obs.Span after ] ->
          Alcotest.(check bool) "error attribute set" true
            (List.mem_assoc "error" boom.args);
          Alcotest.(check int) "depth restored after raise" 0 after.depth
      | es -> Alcotest.failf "expected 2 spans, got %d" (List.length es))

let test_histogram_percentiles () =
  let h = Obs.Histogram.create () in
  for i = 1 to 100 do
    Obs.Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Obs.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1. (Obs.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100. (Obs.Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "p0" 1. (Obs.Histogram.percentile h 0.);
  Alcotest.(check (float 1e-9)) "p50" 50. (Obs.Histogram.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p90" 90. (Obs.Histogram.percentile h 90.);
  Alcotest.(check (float 1e-9)) "p99" 99. (Obs.Histogram.percentile h 99.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Obs.Histogram.percentile h 100.);
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Obs.Histogram.percentile (Obs.Histogram.create ()) 50.));
  (* a single sample answers every percentile *)
  let one = Obs.Histogram.create () in
  Obs.Histogram.add one 7.;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "single sample p%g" q) 7.
        (Obs.Histogram.percentile one q))
    [ 0.; 50.; 100. ];
  (* nearest-rank boundaries on a small population *)
  let four = Obs.Histogram.create () in
  List.iter (fun v -> Obs.Histogram.add four v) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check (float 1e-9)) "4 samples p0" 1. (Obs.Histogram.percentile four 0.);
  Alcotest.(check (float 1e-9)) "4 samples p25" 1. (Obs.Histogram.percentile four 25.);
  Alcotest.(check (float 1e-9)) "4 samples p26" 2. (Obs.Histogram.percentile four 26.);
  Alcotest.(check (float 1e-9)) "4 samples p75" 3. (Obs.Histogram.percentile four 75.);
  Alcotest.(check (float 1e-9)) "4 samples p76" 4. (Obs.Histogram.percentile four 76.);
  Alcotest.(check (float 1e-9)) "4 samples p100" 4. (Obs.Histogram.percentile four 100.)

let test_counters () =
  with_fake_clock (fun () ->
      Obs.enable ();
      Obs.count "execs";
      Obs.count ~by:9 "execs";
      Alcotest.(check int) "accumulated" 10 (Obs.counter_value "execs"))

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "pass:dce \"quoted\"\n");
        ("count", Json.Int 42);
        ("neg", Json.Int (-7));
        ("ratio", Json.Float 0.25);
        ("whole", Json.Float 3.0);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("list", Json.List [ Json.Int 1; Json.String "two"; Json.Obj [] ]);
      ]
  in
  let round = Json.parse (Json.to_string v) in
  Alcotest.(check bool) "value survives print/parse" true (Json.equal v round);
  (* ints and floats stay distinct through the round-trip *)
  (match Json.member "whole" round with
  | Some (Json.Float 3.0) -> ()
  | _ -> Alcotest.fail "whole floats must stay floats");
  (* JSON has no nan or infinity: non-finite floats print as null *)
  let non_finite = Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ] in
  Alcotest.(check string) "non-finite floats print null" "[null,null,null]"
    (Json.to_string non_finite);
  Alcotest.(check bool) "and parse back as null" true
    (Json.equal (Json.List [ Json.Null; Json.Null; Json.Null ])
       (Json.parse (Json.to_string non_finite)));
  match Json.parse "  [1, 2.5e2, \"a\\u0041b\", {\"k\": null}] " with
  | Json.List [ Json.Int 1; Json.Float 250.; Json.String "aAb"; Json.Obj [ ("k", Json.Null) ] ]
    -> ()
  | _ -> Alcotest.fail "hand-written JSON parses structurally"

let test_ndjson_export_round_trip () =
  with_fake_clock (fun () ->
      Obs.enable ();
      Obs.span "compile"
        ~args:[ ("nodes", Obs.Int 7); ("label", Obs.Str "x") ]
        (fun () -> ());
      Obs.gauge "cycles_per_sec" 123456.789;
      Obs.instant "new_coverage" ~args:[ ("execs", Obs.Int 3) ];
      Obs.count "execs";
      Obs.Histogram.add (Obs.histogram "exec_us") 10.;
      Obs.Histogram.add (Obs.histogram "exec_us") 20.;
      let lines =
        Obs.ndjson_string () |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      let parsed = List.map Json.parse lines in
      let kind j =
        match Json.member "type" j with Some (Json.String s) -> s | _ -> "?"
      in
      Alcotest.(check string) "first line is meta" "meta" (kind (List.hd parsed));
      let find k = List.filter (fun j -> kind j = k) parsed in
      Alcotest.(check int) "one span line" 1 (List.length (find "span"));
      Alcotest.(check int) "one gauge line" 1 (List.length (find "gauge"));
      Alcotest.(check int) "one instant line" 1 (List.length (find "instant"));
      Alcotest.(check int) "one counter line" 1 (List.length (find "counter"));
      Alcotest.(check int) "one histogram line" 1 (List.length (find "histogram"));
      (match find "span" with
      | [ span ] -> (
          match Json.member "args" span with
          | Some args -> (
              match (Json.member "nodes" args, Json.member "label" args) with
              | Some (Json.Int 7), Some (Json.String "x") -> ()
              | _ -> Alcotest.fail "span args survive the round-trip")
          | None -> Alcotest.fail "span has args")
      | _ -> assert false);
      match find "histogram" with
      | [ h ] -> (
          match (Json.member "count" h, Json.member "mean" h) with
          | Some (Json.Int 2), Some (Json.Float 15.) -> ()
          | _ -> Alcotest.fail "histogram summary fields")
      | _ -> assert false)

let test_export_import_round_trip () =
  with_fake_clock (fun () ->
      (* worker session: record, export *)
      Obs.enable ();
      Obs.span "work" ~args:[ ("job", Obs.Int 3) ] (fun () -> ());
      Obs.count ~by:5 "execs";
      let start_a =
        match spans () with
        | [ Obs.Span s ] -> s.start_us
        | _ -> Alcotest.fail "one span recorded"
      in
      let exported = Obs.export () in
      (* orchestrator session: enabled later, so its t0 is larger and the
         imported timestamps must shift backwards to line up *)
      Obs.reset ();
      Obs.enable ();
      Obs.import ~label:"w1" exported;
      (match Obs.lanes () with
      | [ l ] -> (
          Alcotest.(check string) "lane label" "w1" l.Obs.lane_label;
          Alcotest.(check int) "lane pid" (Unix.getpid ()) l.Obs.lane_pid;
          match l.Obs.lane_events with
          | [ Obs.Span s ] ->
              Alcotest.(check string) "span survives" "work" s.name;
              Alcotest.(check bool) "span args survive" true (List.mem_assoc "job" s.args);
              Alcotest.(check bool) "start rebased onto the later t0" true
                (s.start_us < start_a)
          | _ -> Alcotest.fail "lane holds exactly the exported span")
      | ls -> Alcotest.failf "expected 1 lane, got %d" (List.length ls));
      Alcotest.(check int) "exporter's counters absorbed" 5 (Obs.counter_value "execs");
      (* an export from a foreign pid lands as its own lane *)
      Obs.import
        {
          Obs.ex_pid = 4242;
          ex_t0_us = 0.;
          ex_events =
            [
              Obs.Span
                { name = "alien"; start_us = 10.; dur_us = 5.; depth = 1; args = [ ("k", Obs.Str "v") ] };
            ];
          ex_counters = [ ("alien_hits", 3) ];
        };
      (match Obs.lanes () with
      | [ _w1; alien ] -> (
          Alcotest.(check int) "foreign pid kept" 4242 alien.Obs.lane_pid;
          Alcotest.(check string) "default label" "pid 4242" alien.Obs.lane_label;
          match alien.Obs.lane_events with
          | [ Obs.Span s ] ->
              Alcotest.(check (float 1e-9)) "duration unchanged" 5.0 s.dur_us;
              Alcotest.(check int) "depth kept" 1 s.depth
          | _ -> Alcotest.fail "alien lane holds one span")
      | ls -> Alcotest.failf "expected 2 lanes, got %d" (List.length ls));
      Alcotest.(check int) "foreign counters absorbed" 3 (Obs.counter_value "alien_hits");
      (* the merged chrome trace shows one lane per process *)
      let trace = Json.parse (Obs.chrome_trace_string ~pid:1 ~tid:1 ()) in
      match Json.member "traceEvents" trace with
      | Some (Json.List events) ->
          let pids =
            List.sort_uniq compare
              (List.filter_map
                 (fun e ->
                   match Json.member "pid" e with Some (Json.Int p) -> Some p | _ -> None)
                 events)
          in
          Alcotest.(check (list int)) "one lane per process"
            (List.sort_uniq compare [ 1; 4242; Unix.getpid () ])
            pids
      | _ -> Alcotest.fail "traceEvents present")

let test_chrome_trace_export () =
  with_fake_clock (fun () ->
      Obs.enable ();
      Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ()));
      Obs.gauge "speed" 10.;
      Obs.instant "hit";
      let trace = Json.parse (Obs.chrome_trace_string ~pid:77 ~tid:77 ()) in
      match Json.member "traceEvents" trace with
      | Some (Json.List events) ->
          Alcotest.(check int) "lane name + 2 spans + 1 gauge + 1 instant" 5
            (List.length events);
          let phases =
            List.map
              (fun e ->
                match Json.member "ph" e with Some (Json.String p) -> p | _ -> "?")
              events
          in
          Alcotest.(check (list string)) "phases" [ "M"; "X"; "X"; "C"; "i" ] phases;
          List.iter
            (fun e ->
              match Json.member "pid" e with
              | Some (Json.Int 77) -> ()
              | _ -> Alcotest.fail "every event carries the requested pid")
            events;
          List.iter
            (fun e ->
              match (Json.member "ts" e, Json.member "pid" e) with
              | Some (Json.Float _), Some (Json.Int _) -> ()
              | _ -> Alcotest.fail "every event carries ts and pid")
            (List.tl events)
      | _ -> Alcotest.fail "traceEvents list present")

(* a pooled fleet worker ships one lane per job from one pid: the trace
   gets one named track per process, and every lane's events stay on it *)
let test_chrome_trace_track_per_process () =
  with_fake_clock (fun () ->
      Obs.enable ();
      let exported ~pid name =
        {
          Obs.ex_pid = pid;
          ex_t0_us = 0.;
          ex_events = [ Obs.Span { name; start_us = 1.; dur_us = 1.; depth = 0; args = [] } ];
          ex_counters = [];
        }
      in
      Obs.import ~label:"job 0" (exported ~pid:4242 "a");
      Obs.import ~label:"job 1" (exported ~pid:4242 "b");
      Obs.import ~label:"solo" (exported ~pid:4343 "c");
      match Json.member "traceEvents" (Json.parse (Obs.chrome_trace_string ~pid:1 ~tid:1 ())) with
      | Some (Json.List events) ->
          let str k e = match Json.member k e with Some (Json.String v) -> v | _ -> "?" in
          let int k e = match Json.member k e with Some (Json.Int v) -> v | _ -> -1 in
          let names =
            List.filter_map
              (fun e ->
                if str "ph" e = "M" then
                  match Json.member "args" e with
                  | Some a -> Some (int "tid" e, str "name" a)
                  | None -> None
                else None)
              events
          in
          Alcotest.(check (list (pair int string)))
            "one thread_name per process"
            [ (1, "main"); (4242, "pid 4242"); (4343, "solo") ]
            names;
          Alcotest.(check (list (pair string int)))
            "every lane's span on its process track"
            [ ("a", 4242); ("b", 4242); ("c", 4343) ]
            (List.filter_map
               (fun e -> if str "ph" e = "X" then Some (str "name" e, int "tid" e) else None)
               events)
      | _ -> Alcotest.fail "traceEvents list present")

let test_sink_captures_simulator_prints () =
  (* Backend.print_sink is Obs.sink: swapping the one ref captures both
     simulator printf output and anything else routed through the sink *)
  Alcotest.(check bool) "print_sink is Obs.sink" true
    (Sic_sim.Backend.print_sink == Obs.sink);
  let buf = Buffer.create 16 in
  Obs.with_sink (Buffer.add_string buf) (fun () -> !Sic_sim.Backend.print_sink "hello");
  Alcotest.(check string) "captured" "hello" (Buffer.contents buf);
  Obs.with_sink (Buffer.add_string buf) (fun () -> !Obs.sink " world");
  Alcotest.(check string) "same sink" "hello world" (Buffer.contents buf)

let test_span_stats () =
  with_fake_clock (fun () ->
      Obs.enable ();
      Obs.span "a" (fun () -> ());
      Obs.span "b" (fun () -> ());
      Obs.span "a" (fun () -> ());
      let stats = Obs.span_stats () in
      Alcotest.(check (list string)) "grouped in first-seen order" [ "a"; "b" ]
        (List.map (fun (s : Obs.span_stat) -> s.Obs.stat_name) stats);
      let a = List.hd stats in
      Alcotest.(check int) "a called twice" 2 a.Obs.calls;
      Alcotest.(check bool) "total is sum" true (a.Obs.total_us >= a.Obs.max_us))

let tests =
  [
    Alcotest.test_case "disabled telemetry is free and silent" `Quick
      test_disabled_is_transparent;
    Alcotest.test_case "span nesting and depths" `Quick test_span_nesting;
    Alcotest.test_case "spans survive exceptions" `Quick test_span_exception;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "counters accumulate" `Quick test_counters;
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "ndjson export round-trips" `Quick test_ndjson_export_round_trip;
    Alcotest.test_case "export/import round-trip" `Quick test_export_import_round_trip;
    Alcotest.test_case "chrome trace export" `Quick test_chrome_trace_export;
    Alcotest.test_case "chrome trace: one track per process" `Quick
      test_chrome_trace_track_per_process;
    Alcotest.test_case "one sink for all runtime output" `Quick
      test_sink_captures_simulator_prints;
    Alcotest.test_case "span stats grouping" `Quick test_span_stats;
  ]
