(** The end-to-end benchmark of the coverage stack.

    [main.exe --workload W --seed N --seconds S --trace 0|1] runs one
    workload against the public API of [lib/], checks its outputs, prints
    every number for people, and ends with one JSON line: the gated
    end-to-end metrics with [--trace 0], the per-layer metrics with
    [--trace 1]. See README.md in this directory. *)

let workloads =
  [
    ("fuzz-riscv", Fuzz_riscv.run);
    ("campaign-rv", Campaign_rv.run);
    ("close-uart", Close_uart.run);
    ("ingest-serve", Ingest_serve.run);
  ]

(** Gated end-to-end metrics: defined on every workload, never zero. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("points_covered", "count");
    ("peak_rss_mb", "MB");
  ]

(** Per-layer metrics, reported by every traced run; a layer a workload
    does not exercise reads 0. Shares are of the traced rounds' wall
    time. *)
let per_layer =
  [
    ("frontend.elab_ms", "ms");
    ("cover.instrument_ms", "ms");
    ("passes.lower_ms", "ms");
    ("sim.builds", "count");
    ("sim.build_ms", "ms");
    ("sim.build_share", "ratio");
    ("sim.cycles", "count");
    ("sim.step_ns_per_cycle", "ns");
    ("sim.step_share", "ratio");
    ("sim.poke_share", "ratio");
    ("cover.harvest_us", "us");
    ("fuzz.unpack_share", "ratio");
    ("fuzz.loop_share", "ratio");
    ("fuzz.novel_ratio", "ratio");
    ("fleet.job_ms", "ms");
    ("fleet.overhead_ms", "ms");
    ("fleet.overhead_share", "ratio");
    ("fleet.codec_us", "us");
    ("formal.bmc_p50_ms", "ms");
    ("formal.bmc_p90_ms", "ms");
    ("formal.bmc_share", "ratio");
    ("formal.sat", "count");
    ("formal.unsat", "count");
    ("close.bmc_phase_s", "s");
    ("close.fuzz_phase_s", "s");
    ("close.waves", "count");
    ("close.points_excluded", "count");
    ("close.loop_share", "ratio");
    ("db.add_p50_ms", "ms");
    ("db.add_p90_ms", "ms");
    ("db.load_ms", "ms");
    ("db.union_ms", "ms");
    ("counts.encode_us", "us");
    ("counts.decode_us", "us");
    ("serve.http_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.write_p90_ms", "ms");
    ("serve.read_p50_ms", "ms");
    ("serve.read_p90_ms", "ms");
    ("serve.request_p99_ms", "ms");
    ("bench.gen_late_p99_ms", "ms");
    ("bench.trace_overhead", "ratio");
  ]

(* the layers whose self-time shares are gated-free per-layer metrics *)
let share_metrics =
  [
    ("sim.build_share", [ "sim.build" ]);
    ("sim.step_share", [ "sim.step" ]);
    ("sim.poke_share", [ "sim.poke" ]);
    ("fuzz.unpack_share", [ "fuzz.unpack" ]);
    ("fuzz.loop_share", [ "fuzz.loop" ]);
    ("fleet.overhead_share", [ "fleet.overhead" ]);
    ("formal.bmc_share", [ "formal.bmc" ]);
    ("close.loop_share", [ "close.loop" ]);
  ]

let track_names =
  [ (1, "benchmark"); (3, "connection 1"); (4, "connection 2") ]

let json_metrics (values : (string * float) list) (catalog : (string * string) list) =
  let module J = Sic_obs.Json in
  J.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0. (List.assoc_opt name values) in
         if not (Float.is_finite v) then
           failwith (Printf.sprintf "metric %s is not a finite number" name);
         (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
       catalog)

let print_report ~workload ~seed (r : Bench.result) =
  Printf.printf "perfbench %s seed %d\n" workload seed;
  Printf.printf "  %-24s %14s %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (row : Bench.row) ->
      Printf.printf "  %-24s %14.4f %-6s %s\n" row.Bench.r_name row.Bench.r_value row.Bench.r_unit
        (if row.Bench.r_samples > 0 then string_of_int row.Bench.r_samples else ""))
    r.Bench.report;
  Printf.printf "  %-24s %14.4f %-6s %d/%d\n" "fail_ratio"
    (Stats.fail_ratio ~attempted:r.Bench.attempted ~failed:r.Bench.failed)
    "ratio" r.Bench.failed r.Bench.attempted;
  List.iter
    (fun (g : Bench.gate) ->
      Printf.printf "  gate %-4s %s (%s)\n"
        (if g.Bench.g_ok then "ok" else "FAIL")
        g.Bench.g_name g.Bench.g_detail)
    r.Bench.gates

let print_layers (r : Bench.result) =
  let totals, denom = r.Bench.shares in
  if denom > 0. then begin
    Printf.printf "  self time by layer over the traced rounds (%.3f s)\n" denom;
    List.iter
      (fun (layer, s) ->
        Printf.printf "    %-22s %10.4f s %6.1f%%\n" layer s (100. *. s /. denom))
      (List.sort (fun (_, a) (_, b) -> compare b a) totals)
  end;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-24s %14.4f %s\n" name
        (Option.value ~default:0. (List.assoc_opt name r.Bench.layers))
        unit)
    per_layer

let share_values (r : Bench.result) =
  let totals, denom = r.Bench.shares in
  if denom <= 0. then []
  else
    List.map
      (fun (metric, layers) ->
        ( metric,
          List.fold_left
            (fun acc l -> acc +. Option.value ~default:0. (List.assoc_opt l totals))
            0. layers
          /. denom ))
      share_metrics

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let work = ref ".perfbench" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 gated end-to-end run, or traced per-layer run");
      ("--work", Arg.Set_string work, "DIR scratch directory (default .perfbench)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe --workload NAME [options]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if not (!seconds > 0.) then (prerr_endline "--seconds must be positive"; exit 2);
  let traced = !trace = 1 in
  let dir = Filename.concat !work (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  Bench.mkdir_p dir;
  let r =
    Fun.protect
      ~finally:(fun () -> Bench.rm_rf dir)
      (fun () -> run ~seed:!seed ~seconds:!seconds ~trace:traced ~work:dir)
  in
  let rss = Bench.peak_rss_mb () in
  let phases =
    List.map
      (fun p -> (p ^ "_ms", Bench.phase_median p *. 1e3))
      [ "frontend.elab"; "cover.instrument"; "passes.lower" ]
  in
  let r =
    {
      r with
      Bench.layers = phases @ r.Bench.layers;
      e2e = (if r.Bench.e2e = [] then [] else r.Bench.e2e @ [ ("peak_rss_mb", rss) ]);
      report = r.Bench.report @ [ Bench.row "peak_rss_mb" "MB" rss ];
    }
  in
  print_report ~workload:!workload ~seed:!seed r;
  if traced then begin
    let path = Filename.concat !work (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
    let oc = open_out path in
    output_string oc (Trace.to_chrome_json ~track_names (Trace.spans ()));
    close_out oc;
    print_layers { r with Bench.layers = r.Bench.layers @ share_values r };
    Printf.printf "  chrome trace: %s\n" path
  end;
  let correct = List.for_all (fun (g : Bench.gate) -> g.Bench.g_ok) r.Bench.gates in
  let metrics =
    if traced then json_metrics (r.Bench.layers @ share_values r) per_layer
    else begin
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name r.Bench.e2e) then
            failwith (Printf.sprintf "end-to-end metric %s was not measured" name))
        end_to_end;
      json_metrics r.Bench.e2e end_to_end
    end
  in
  let module J = Sic_obs.Json in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int r.Bench.attempted);
            ("failed", J.Int r.Bench.failed);
            ("metrics", metrics);
          ]));
  if not correct then exit 1

let () =
  Sic_serve.Serve.ignore_sigpipe ();
  try main ()
  with Failure msg | Sys_error msg ->
    Printf.eprintf "perfbench: %s\n" msg;
    exit 1
