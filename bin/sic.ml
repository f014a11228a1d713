(** [sic] — simulator-independent coverage for RTL, as a command-line tool.

    Circuits come from a [.fir] file (the FIRRTL-style concrete syntax) or
    from a built-in design by name. Subcommands:

    - [emit]    parse, check, and pretty-print a circuit (or a design)
    - [lower]   run the standard pass pipeline to the flat low form
    - [cover]   instrument with selected metrics, run a workload on a
                backend, print reports, optionally save the counts map
    - [merge]   merge counts files (trivially, §5.3)
    - [bmc]     formal cover-trace generation (reachability per cover)
    - [fuzz]    coverage-directed fuzzing with a selectable feedback metric
    - [scan]    insert the FPGA scan chain and report modelled resources
                (with [--db], only for points the database has not covered)
    - [profile] compile + simulate a design and print per-pass/per-phase
                timings (the §5 overhead study as a subcommand)
    - [hotspots] profile the word-level engine itself: per-instruction
                hit counts and sampled self-times attributed back to IR
                statements and RTL source lines, with collapsed-stack
                ([--folded]) output for flamegraph tooling
    - [db]      the persistent coverage database: init, add, list, diff,
                rank (greedy test-suite minimization), report
    - [campaign] run designs x backends x seeds in [-j N] forked workers
                into a database, wave by wave with §5.3 removal between
                ([--progress] renders a live status line; exits nonzero if
                any job exhausts its retries; [--push URL] forwards every
                recorded run to a running coverage server)
    - [serve]   the coverage service: an HTTP server over a database that
                ingests runs ([POST /runs]) and serves merged reports, a
                live SSE stream ([GET /watch]), an HTML dashboard and
                Prometheus metrics
    - [watch]   subscribe to a server's [/watch] stream and render a live
                terminal status line (runs, covered points, workers)
    - [tail]    pretty-print a telemetry NDJSON file, optionally following
                it live ([-f]) while a campaign runs

    The compile-and-simulate subcommands also take [--profile[=FILE]] and
    [--trace FILE] to export structured telemetry (newline-delimited JSON
    and the Chrome trace-event format, respectively). For [campaign], the
    merged trace carries one lane per worker process — workers ship their
    events back over the result pipe and the parent rebases them onto its
    own clock. *)

open Cmdliner
module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Obs = Sic_obs.Obs
module Db = Sic_db.Db
module Fleet = Sic_fleet.Fleet
module Serve = Sic_serve.Serve
open Sic_sim

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

let designs : (string * (unit -> Sic_ir.Circuit.t)) list =
  [
    ("counter", fun () -> Sic_designs.Counter.circuit ());
    ("gcd", fun () -> Sic_designs.Gcd.circuit ());
    ("fifo", fun () -> Sic_designs.Fifo.circuit ());
    ("uart", fun () -> Sic_designs.Uart.circuit ());
    ("i2c", fun () -> Sic_designs.I2c.circuit ());
    ("tlram", fun () -> Sic_designs.Tlram.circuit ());
    ("arbiter", fun () -> Sic_designs.Arbiter.circuit ());
    ("matmul", fun () -> Sic_designs.Matmul.circuit ());
    ("closefix", fun () -> Sic_designs.Closefix.circuit ());
    ("memsys", fun () -> Sic_designs.Memsys.circuit ());
    ("serv", fun () -> Sic_designs.Serv.circuit ());
    ("neuroproc", fun () -> Sic_designs.Neuroproc.circuit ());
    ("riscv-mini", fun () -> Sic_designs.Riscv_mini.circuit ());
    ("riscv-mini-formal",
     fun () -> Sic_designs.Riscv_mini.circuit ~params:Sic_designs.Riscv_mini.formal_params ());
    ("rocket-soc", fun () -> Sic_designs.Soc.circuit Sic_designs.Soc.rocket_sim_config);
    ("boom-soc", fun () -> Sic_designs.Soc.circuit Sic_designs.Soc.boom_sim_config);
  ]

(* a circuit file: Verilog by suffix, FIRRTL-style text otherwise *)
let load_circuit_file path =
  if Sic_verilog.Verilog.is_verilog_path path then Sic_verilog.Verilog.load_file path
  else Sic_obs.Artifact.load path Sic_ir.Parser.parse_circuit

let load_circuit ~file ~design =
  match (file, design) with
  | Some path, None -> load_circuit_file path
  | None, Some name -> (
      match List.assoc_opt name designs with
      | Some build -> build ()
      | None ->
          (* names double as paths: [--design foo.v] (and campaign design
             lists) accept any circuit file on disk *)
          if Sys.file_exists name then load_circuit_file name
          else begin
            Printf.eprintf "unknown design %s; available: %s\n" name
              (String.concat ", " (List.map fst designs));
            exit 2
          end)
  | Some _, Some _ ->
      prerr_endline "pass either a file or --design, not both";
      exit 2
  | None, None ->
      prerr_endline "pass a .fir file or --design NAME";
      exit 2

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.fir" ~doc:"Input circuit file.")

let design_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "design" ] ~docv:"NAME" ~doc:"Use a built-in design instead of a file.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Write output here instead of stdout.")

let write_out ~output text =
  match output with
  | None -> print_string text
  | Some path -> Sic_obs.Artifact.save path text

(* ------------------------------------------------------------------ *)
(* Telemetry                                                            *)
(* ------------------------------------------------------------------ *)

let profile_flag =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Record telemetry and write it as newline-delimited JSON to $(docv) when the \
           command finishes ('-', the default when no file is given, writes to stderr).")

let trace_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record telemetry and write a Chrome trace-event file to $(docv), loadable in \
           about://tracing or Perfetto.")

let write_telemetry path text =
  if path = "-" then prerr_string text else Sic_obs.Artifact.save path text

(** Enable recording when either export flag is set, run [f], then export.
    Exports run from a finalizer so a failing run still leaves its partial
    telemetry behind. *)
let with_telemetry ~profile ~trace f =
  if profile <> None || trace <> None then Obs.enable ();
  let finish () =
    (match profile with
    | None -> ()
    | Some path -> write_telemetry path (Obs.ndjson_string ()));
    match trace with
    | None -> ()
    | Some path -> write_telemetry path (Obs.chrome_trace_string ())
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type dbs = {
  mutable line : Sic_coverage.Line_coverage.db;
  mutable toggle : Sic_coverage.Toggle_coverage.db option;
  mutable fsm : Sic_coverage.Fsm_coverage.db;
  mutable rv : Sic_coverage.Ready_valid_coverage.db;
  mutable mux : Sic_coverage.Mux_coverage.db;
}

let metric_conv =
  Arg.enum
    [ ("line", `Line); ("toggle", `Toggle); ("fsm", `Fsm); ("ready-valid", `Rv); ("mux", `Mux) ]

let metrics_arg =
  let base =
    Arg.(
      value
      & opt_all metric_conv []
      & info [ "m"; "metric" ] ~docv:"METRIC"
          ~doc:"Coverage metric (repeatable): line, toggle, fsm, ready-valid, mux.")
  in
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let combine ms line toggle fsm rv mux =
    let add cond m acc = if cond && not (List.mem m acc) then acc @ [ m ] else acc in
    let ms =
      List.fold_left
        (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
        [] ms
      |> add line `Line |> add toggle `Toggle |> add fsm `Fsm |> add rv `Rv |> add mux `Mux
    in
    if ms = [] then [ `Line ] else ms
  in
  Term.(
    const combine $ base
    $ flag "line" "Shorthand for $(b,-m line) (the default metric)."
    $ flag "toggle" "Shorthand for $(b,-m toggle)."
    $ flag "fsm" "Shorthand for $(b,-m fsm)."
    $ flag "ready-valid" "Shorthand for $(b,-m ready-valid)."
    $ flag "mux" "Shorthand for $(b,-m mux).")

(* instrument per metric at the right pipeline stage (§4) *)
let instrument metrics circuit =
  let dbs = { line = []; toggle = None; fsm = []; rv = []; mux = [] } in
  let c = ref circuit in
  if List.mem `Line metrics then begin
    let c', db = Sic_coverage.Line_coverage.instrument !c in
    c := c';
    dbs.line <- db
  end;
  c := Sic_passes.Compile.lower !c;
  if List.mem `Toggle metrics then begin
    let c', db = Sic_coverage.Toggle_coverage.instrument !c in
    c := c';
    dbs.toggle <- Some db
  end;
  if List.mem `Fsm metrics then begin
    let c', db = Sic_coverage.Fsm_coverage.instrument !c in
    c := c';
    dbs.fsm <- db
  end;
  if List.mem `Rv metrics then begin
    let c', db = Sic_coverage.Ready_valid_coverage.instrument !c in
    c := c';
    dbs.rv <- db
  end;
  if List.mem `Mux metrics then begin
    let c', db = Sic_coverage.Mux_coverage.instrument !c in
    c := c';
    dbs.mux <- db
  end;
  (!c, dbs)

let reports metrics dbs counts =
  let buf = Buffer.create 1024 in
  if List.mem `Line metrics then
    Buffer.add_string buf (Sic_coverage.Line_coverage.render ~with_sources:true dbs.line counts);
  (match (List.mem `Toggle metrics, dbs.toggle) with
  | true, Some db -> Buffer.add_string buf (Sic_coverage.Toggle_coverage.render db counts)
  | _ -> ());
  if List.mem `Fsm metrics then
    Buffer.add_string buf (Sic_coverage.Fsm_coverage.render dbs.fsm counts);
  if List.mem `Rv metrics then
    Buffer.add_string buf (Sic_coverage.Ready_valid_coverage.render dbs.rv counts);
  if List.mem `Mux metrics then
    Buffer.add_string buf (Sic_coverage.Mux_coverage.render dbs.mux counts);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Backends                                                             *)
(* ------------------------------------------------------------------ *)

let backend_conv =
  Arg.enum
    [ ("interp", `Interp); ("compiled", `Compiled); ("essent", `Essent); ("lanes", `Lanes) ]

let backend_arg =
  Arg.(
    value
    & opt backend_conv `Compiled
    & info [ "backend" ] ~docv:"NAME"
        ~doc:"Simulator backend: interp, compiled, essent, lanes.")

let create_backend = function
  | `Interp -> Interp.create
  | `Compiled -> fun c -> Compiled.create c
  | `Essent -> Essent.create
  | `Lanes -> fun c -> Lanes.create c

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)
(* ------------------------------------------------------------------ *)

let handle_errors f =
  try f () with
  | Sic_ir.Parser.Parse_error { line; message } ->
      Printf.eprintf "parse error at line %d: %s\n" line message;
      exit 1
  | Sic_verilog.Verilog.Error { pos; message } ->
      Printf.eprintf "%s:%d:%d: %s\n" pos.file pos.line pos.col message;
      exit 1
  | Sic_passes.Pass.Pass_error { pass; message } ->
      Printf.eprintf "pass %s failed: %s\n" pass message;
      exit 1
  | Sic_ir.Circuit.Elaboration_error m | Backend.Sim_error m ->
      Printf.eprintf "error: %s\n" m;
      exit 1
  | Db.Db_error m | Sic_obs.Artifact.Bad_format m ->
      Printf.eprintf "error: %s\n" m;
      exit 1

let emit_cmd =
  let run file design output =
    handle_errors (fun () ->
        let c = Sic_passes.Check.run (load_circuit ~file ~design) in
        write_out ~output (Sic_ir.Printer.circuit_to_string c))
  in
  Cmd.v (Cmd.info "emit" ~doc:"Parse, check and pretty-print a circuit.")
    Term.(const run $ file_arg $ design_arg $ output_arg)

let lower_cmd =
  let run file design output profile trace =
    handle_errors (fun () ->
        with_telemetry ~profile ~trace (fun () ->
            let c = Sic_passes.Compile.lower (load_circuit ~file ~design) in
            write_out ~output (Sic_ir.Printer.circuit_to_string c)))
  in
  Cmd.v (Cmd.info "lower" ~doc:"Lower a circuit to the flat low form.")
    Term.(const run $ file_arg $ design_arg $ output_arg $ profile_flag $ trace_flag)

let cycles_arg =
  Arg.(value & opt int 1000 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to simulate.")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Stimulus seed.")

let counts_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-counts" ] ~docv:"PATH" ~doc:"Save the raw counts map here.")

let replay_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"TRACE.vcd" ~doc:"Replay a recorded input trace instead of random stimulus.")

let html_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"PATH" ~doc:"Also write a self-contained HTML report here.")

let vcd_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"PATH" ~doc:"Dump a waveform of the run to this VCD file.")

let heat_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "heat" ] ~docv:"PROFILE"
        ~doc:
          "Tint the HTML report's annotated sources with per-line engine heat from this \
           profile artifact (as written by $(b,sic hotspots --save) or $(b,sic campaign \
           --profile-out)).")

(* a profile artifact as per-line heat for the HTML report: the report
   library takes plain data, so the [file:line] keys are split here *)
let heat_of_profile (p : Profile.t) : Sic_coverage.Html_report.line_heat list =
  List.concat_map
    (fun dp ->
      List.filter_map
        (fun (l : Profile.line_agg) ->
          match String.rindex_opt l.Profile.l_loc ':' with
          | None -> None
          | Some i -> (
              let file = String.sub l.Profile.l_loc 0 i in
              let rest =
                String.sub l.Profile.l_loc (i + 1) (String.length l.Profile.l_loc - i - 1)
              in
              match int_of_string_opt rest with
              | None -> None
              | Some line ->
                  Some
                    {
                      Sic_coverage.Html_report.heat_file = file;
                      heat_line = line;
                      heat_hits = l.Profile.l_hits;
                      heat_time_ns = l.Profile.l_time_ns;
                    }))
        (Profile.by_line dp))
    p

let waivers_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "waivers" ] ~docv:"FILE"
        ~doc:"Coverage exclusion file: one name pattern per line, * wildcards, # comments.")

let lanes_arg =
  Arg.(
    value
    & opt int 1
    & info [ "lanes" ] ~docv:"K"
        ~doc:
          "With --backend lanes: simulate $(docv) independent stimulus seeds bit-parallel \
           in one engine pass (1-62). Lane k's stream derives from --seed by \
           deterministic splitting; the report merges all $(docv) runs' counts. With K=1 \
           (the default) the lanes backend runs as an ordinary lockstep backend whose \
           counts are byte-identical to compiled's.")

let cover_cmd =
  let run file design metrics backend cycles seed lanes_k counts_out replay html vcd
      waivers heat profile trace =
    handle_errors (fun () ->
        with_telemetry ~profile ~trace @@ fun () ->
        let c = load_circuit ~file ~design in
        let low, dbs = instrument metrics c in
        let low =
          match waivers with
          | None -> low
          | Some path ->
              let patterns = Sic_coverage.Removal.load_waivers path in
              let r = Sic_coverage.Removal.remove_matching ~patterns low in
              Printf.printf "# %d cover points waived by %s\n" (List.length r.Sic_coverage.Removal.removed) path;
              r.Sic_coverage.Removal.circuit
        in
        let counts =
          match backend with
          | `Lanes when lanes_k > 1 ->
              (* the bit-parallel path: k seeds advance per tape pass; the
                 counts below are the merge of k solo-run-exact per-lane
                 maps. Replay and waveforms are single-stream concepts *)
              if replay <> None || vcd <> None then begin
                Printf.eprintf "cover: --lanes > 1 is incompatible with --replay/--vcd\n";
                exit 2
              end;
              let k = max 1 (min 62 lanes_k) in
              let lt = Lanes.build ~lanes:k low in
              Backend.reset_sequence (Lanes.to_backend ~name:"lanes" lt);
              let master = Sic_fuzz.Rng.create seed in
              let streams =
                Array.init k (fun l -> Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.split master l))
              in
              Lanes.run_random lt ~streams ~cycles;
              Printf.printf "# lanes: %d seeds x %d cycles per pass, %.0f%% of tape vectorized\n"
                k cycles
                (100. *. Lanes.vectorized_fraction lt);
              Counts.merge (List.init k (Lanes.lane_counts lt))
          | _ ->
              let b, close_trace =
                let b = create_backend backend low in
                match vcd with
                | None -> (b, fun () -> ())
                | Some path -> Tracer.attach ~regs:true ~path b
              in
              (match replay with
              | Some path -> Replay.replay b (Replay.load_vcd path)
              | None ->
                  Backend.reset_sequence b;
                  let rng = Sic_fuzz.Rng.create seed in
                  Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 rng) ~cycles b);
              close_trace ();
              b.Backend.counts ()
        in
        print_string (reports metrics dbs counts);
        (match counts_out with None -> () | Some path -> Counts.save path counts);
        match html with
        | None -> ()
        | Some path ->
            Sic_coverage.Html_report.save path
              ?line:(if List.mem `Line metrics then Some dbs.line else None)
              ?toggle:dbs.toggle
              ?fsm:(if List.mem `Fsm metrics then Some dbs.fsm else None)
              ?rv:(if List.mem `Rv metrics then Some dbs.rv else None)
              ?profile:(Option.map (fun p -> heat_of_profile (Profile.load p)) heat)
              counts)
  in
  Cmd.v
    (Cmd.info "cover"
       ~doc:"Instrument, simulate, and print coverage reports (random stimulus or a VCD replay).")
    Term.(
      const run $ file_arg $ design_arg $ metrics_arg $ backend_arg $ cycles_arg $ seed_arg
      $ lanes_arg $ counts_out_arg $ replay_arg $ html_arg $ vcd_arg $ waivers_arg
      $ heat_arg $ profile_flag $ trace_flag)

let merge_cmd =
  let inputs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"COUNTS..." ~doc:"Counts files.")
  in
  let run inputs output =
    handle_errors (fun () ->
        let merged = Counts.merge (List.map Counts.load inputs) in
        match output with
        | None -> print_string (Counts.to_string merged)
        | Some path -> Counts.save path merged)
  in
  Cmd.v (Cmd.info "merge" ~doc:"Merge coverage counts files (pointwise saturating sum).")
    Term.(const run $ inputs $ output_arg)

let bound_arg =
  Arg.(value & opt int 20 & info [ "bound" ] ~docv:"K" ~doc:"BMC unrolling bound.")

let bmc_cmd =
  let run file design metrics bound profile trace =
    handle_errors (fun () ->
        with_telemetry ~profile ~trace @@ fun () ->
        let c = load_circuit ~file ~design in
        let low, _dbs = instrument metrics c in
        let report = Sic_formal.Bmc.check_covers ~bound low in
        print_string (Sic_formal.Bmc.render report))
  in
  Cmd.v
    (Cmd.info "bmc"
       ~doc:"Formal cover-trace generation: find reaching inputs or prove unreachability within the bound.")
    Term.(const run $ file_arg $ design_arg $ metrics_arg $ bound_arg $ profile_flag $ trace_flag)

let execs_arg =
  Arg.(value & opt int 500 & info [ "execs" ] ~docv:"N" ~doc:"Fuzzer executions.")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Corpus directory: existing $(docv)/*.bin seeds are loaded as extra initial \
           inputs (e.g. sic close's witness seeds), and the final corpus is saved back \
           when the run ends.")

let fuzz_cmd =
  let run file design metrics execs seed backend corpus profile trace =
    handle_errors (fun () ->
        with_telemetry ~profile ~trace @@ fun () ->
        let c = load_circuit ~file ~design in
        let low, dbs = instrument metrics c in
        let h = Sic_fuzz.Fuzzer.make_harness ~create:(create_backend backend) low in
        let seeds =
          match corpus with None -> [] | Some dir -> Sic_fuzz.Fuzzer.load_corpus dir
        in
        if seeds <> [] then
          Printf.printf "# corpus: %d seed(s) loaded from %s\n" (List.length seeds)
            (Option.get corpus);
        let r =
          Sic_fuzz.Fuzzer.run ~seed ~execs ~seed_cycles:32 ~max_cycles:128 ~corpus:seeds h
        in
        (match corpus with
        | None -> ()
        | Some dir ->
            Sic_fuzz.Fuzzer.save_corpus dir r.Sic_fuzz.Fuzzer.corpus;
            Printf.printf "# corpus: %d testcase(s) saved to %s\n"
              (List.length r.Sic_fuzz.Fuzzer.corpus) dir);
        Printf.printf "execs %d, corpus %d, feedback pairs %d\n" r.Sic_fuzz.Fuzzer.final.execs
          r.Sic_fuzz.Fuzzer.final.corpus_size r.Sic_fuzz.Fuzzer.final.seen_pairs;
        print_string (reports metrics dbs r.Sic_fuzz.Fuzzer.final.cumulative))
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Coverage-directed fuzzing; prints cumulative coverage reports.")
    Term.(
      const run $ file_arg $ design_arg $ metrics_arg $ execs_arg $ seed_arg $ backend_arg
      $ corpus_arg $ profile_flag $ trace_flag)

let width_arg =
  Arg.(value & opt int 16 & info [ "width" ] ~docv:"W" ~doc:"Coverage counter width in bits.")

let scan_cmd =
  let db_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR"
          ~doc:
            "Apply §5.3 removal against this coverage database first: cover points the \
             database already covers (at --threshold) are stripped before the scan chain \
             is built, so the FPGA image only carries still-uncovered points.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt int 10
      & info [ "threshold" ] ~docv:"N"
          ~doc:"Removal threshold: drop covers the database saw at least $(docv) times.")
  in
  let run file design metrics width db threshold cycles seed =
    handle_errors (fun () ->
        let c = load_circuit ~file ~design in
        let low, dbs = instrument metrics c in
        let low =
          match db with
          | None -> low
          | Some dir ->
              let covered = Db.removal_counts (Db.load dir) in
              let r = Sic_coverage.Removal.remove_covered ~threshold covered low in
              Printf.printf "removal        : %d covered points dropped, %d kept (db %s)\n"
                (List.length r.Sic_coverage.Removal.removed)
                (List.length r.Sic_coverage.Removal.kept)
                dir;
              r.Sic_coverage.Removal.circuit
        in
        let chained, chain = Sic_firesim.Scan_chain.insert ~width low in
        let n = List.length chain.Sic_firesim.Scan_chain.order in
        let base = Sic_firesim.Resource_model.baseline low in
        let u = Sic_firesim.Resource_model.with_coverage base ~n_covers:n ~width in
        Printf.printf "cover counters : %d x %d bits\n" n width;
        Printf.printf "scan-out cost  : %d cycles\n" (n * width);
        Format.printf "resources      : %a@."
          Sic_firesim.Resource_model.pp_utilization u;
        ignore chained;
        (* dry-run the instrumented design so the scan report also shows
           what the workload would actually cover *)
        if cycles > 0 then begin
          let b = Compiled.create low in
          Backend.reset_sequence b;
          let rng = Sic_fuzz.Rng.create seed in
          Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 rng) ~cycles b;
          print_string (reports metrics dbs (b.Backend.counts ()))
        end)
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Insert the FPGA coverage scan chain, report modelled resources (optionally only \
          for points a coverage database has not yet covered), and simulate the workload \
          to preview coverage.")
    Term.(
      const run $ file_arg $ design_arg $ metrics_arg $ width_arg $ db_arg $ threshold_arg
      $ cycles_arg $ seed_arg)

let diff_cmd =
  let before = Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE.cnt") in
  let after = Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER.cnt") in
  let run before after =
    handle_errors (fun () ->
        print_string
          (Counts.render_diff
             (Counts.diff ~before:(Counts.load before) ~after:(Counts.load after))))
  in
  Cmd.v (Cmd.info "diff" ~doc:"Compare two coverage counts files.")
    Term.(const run $ before $ after)

let stats_cmd =
  let lowered =
    Arg.(value & flag & info [ "lowered" ] ~doc:"Show statistics of the lowered circuit.")
  in
  let run file design lowered =
    handle_errors (fun () ->
        let c = load_circuit ~file ~design in
        let c = if lowered then Sic_passes.Compile.lower c else Sic_passes.Check.run c in
        print_string (Sic_passes.Stats.render c))
  in
  Cmd.v (Cmd.info "stats" ~doc:"Circuit statistics per module.")
    Term.(const run $ file_arg $ design_arg $ lowered)

let profile_cmd =
  let cycles_arg =
    Arg.(value & opt int 5000 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to simulate.")
  in
  let run file design metrics backend cycles seed profile trace =
    handle_errors (fun () ->
        (* always record: this subcommand *is* the telemetry report *)
        Obs.enable ();
        with_telemetry ~profile ~trace @@ fun () ->
        let c = load_circuit ~file ~design in
        let low, _dbs =
          Obs.span "phase:compile" (fun () -> instrument metrics c)
        in
        let b = create_backend backend low in
        Obs.span "phase:simulate"
          ~args:[ ("cycles", Obs.Int cycles) ]
          (fun () ->
            Backend.reset_sequence b;
            let rng = Sic_fuzz.Rng.create seed in
            Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 rng) ~cycles b);
        let counts = b.Backend.counts () in
        Printf.printf "design   : %s\n" low.Sic_ir.Circuit.circuit_name;
        Printf.printf "backend  : %s\n" b.Backend.backend_name;
        Printf.printf "cycles   : %d\n" (b.Backend.cycles ());
        Printf.printf "covers   : %d/%d hit\n" (Counts.covered_points counts)
          (Counts.total_points counts);
        let simulate_us =
          List.fold_left
            (fun acc (s : Obs.span_stat) ->
              if s.Obs.stat_name = "phase:simulate" then acc +. s.Obs.total_us else acc)
            0. (Obs.span_stats ())
        in
        if simulate_us > 0. then
          Printf.printf "speed    : %.0f cycles/sec\n"
            (float_of_int (b.Backend.cycles ()) /. (simulate_us /. 1e6));
        print_newline ();
        print_string (Obs.render_span_table ()))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile and simulate a design with telemetry on; print a per-pass/per-phase \
          timing table (combine with --profile/--trace to export the raw events).")
    Term.(
      const run $ file_arg $ design_arg $ metrics_arg $ backend_arg $ cycles_arg $ seed_arg
      $ profile_flag $ trace_flag)

let hotspots_cmd =
  let cycles_arg =
    Arg.(value & opt int 10_000 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to simulate.")
  in
  let top_arg =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"K" ~doc:"Rows per ranked table (source lines, statements).")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"PATH"
          ~doc:
            "Also write collapsed-stack lines here (one $(b,design;file:line;statement;op \
             count) per tape instruction), ready for flamegraph tooling.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"PATH"
          ~doc:"Also save the raw profile artifact here (mergeable with campaign profiles).")
  in
  let sample_arg =
    Arg.(
      value & opt int 64
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Clock every instruction on every $(docv)th tape evaluation (0: hit counts \
             only, no timing).")
  in
  let run file design cycles seed top folded save sample =
    handle_errors (fun () ->
        let c = load_circuit ~file ~design in
        let low = Sic_passes.Compile.lower c in
        let mode =
          if sample <= 0 then Compiled.Counts_only else Compiled.Sampled sample
        in
        let sim = Compiled.build ~profile:mode low in
        let b = Compiled.to_backend ~name:"compiled" sim in
        Backend.reset_sequence b;
        let rng = Sic_fuzz.Rng.create seed in
        Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 rng) ~cycles b;
        match Compiled.profile sim with
        | None -> assert false
        | Some dp ->
            let p = [ dp ] in
            Printf.printf "design   : %s\n" dp.Profile.design;
            Printf.printf "cycles   : %d\n" dp.Profile.cycles;
            Printf.printf "tape     : %s\n" (Compiled.stats sim);
            (* how much of the tape the change-driven schedule actually
               re-evaluates, on average *)
            let execs = Compiled.exec_counts sim in
            let n = Array.length execs in
            if n > 0 && dp.Profile.runs > 0 then
              Printf.printf "activity : %.1f%% of %d instructions per evaluation (%d runs)\n"
                (100.0
                *. float_of_int (Array.fold_left ( + ) 0 execs)
                /. float_of_int (n * dp.Profile.runs))
                n dp.Profile.runs;
            print_newline ();
            print_string (Profile.render ~top p);
            (match folded with
            | None -> ()
            | Some path -> write_out ~output:(Some path) (Profile.folded p));
            match save with
            | None -> ()
            | Some path -> Profile.save path p)
  in
  Cmd.v
    (Cmd.info "hotspots"
       ~doc:
         "Profile the word-level engine on a design: per-instruction hit counts and \
          sampled self-times, ranked per source line and per IR statement, with \
          collapsed-stack output for flamegraphs.")
    Term.(
      const run $ file_arg $ design_arg $ cycles_arg $ seed_arg $ top_arg $ folded_arg
      $ save_arg $ sample_arg)

(* ------------------------------------------------------------------ *)
(* The coverage database                                                *)
(* ------------------------------------------------------------------ *)

let db_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Coverage database directory.")

let db_init_cmd =
  let run dir = handle_errors (fun () -> ignore (Db.init dir)) in
  Cmd.v
    (Cmd.info "init" ~doc:"Create an empty coverage database (a directory with a manifest).")
    Term.(const run $ db_dir_arg)

let db_add_cmd =
  let counts_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"COUNTS.cnt" ~doc:"Counts file.")
  in
  let design =
    Arg.(
      value & opt string "unknown" & info [ "design" ] ~docv:"NAME" ~doc:"Design the run covered.")
  in
  let backend =
    Arg.(
      value
      & opt string "external"
      & info [ "backend" ] ~docv:"NAME" ~doc:"Backend that produced the counts.")
  in
  let workload =
    Arg.(value & opt string "external" & info [ "workload" ] ~docv:"NAME" ~doc:"Workload name.")
  in
  let run dir counts design backend workload seed cycles =
    handle_errors (fun () ->
        (* outer lock makes the load-add read-modify-write atomic against
           concurrent adders (id assignment reads the manifest) *)
        let r =
          Db.Lock.with_lock dir (fun () ->
              let db = Db.load dir in
              Db.add db ~design ~backend ~workload ~seed ~cycles (Ok (Counts.load counts)))
        in
        print_endline (Db.render_run_line r))
  in
  Cmd.v
    (Cmd.info "add"
       ~doc:
         "Register an externally produced counts file (any simulator, any format-v1 \
          producer) as a run.")
    Term.(const run $ db_dir_arg $ counts_arg $ design $ backend $ workload $ seed_arg $ cycles_arg)

let db_list_cmd =
  let run dir = handle_errors (fun () -> print_string (Db.render_list (Db.load dir))) in
  Cmd.v (Cmd.info "list" ~doc:"List every recorded run.") Term.(const run $ db_dir_arg)

let db_report_cmd =
  let timeline_flag =
    Arg.(
      value
      & flag
      & info [ "timeline" ]
          ~doc:
            "Also print per-run coverage-convergence sparklines and, with several backends \
             recorded, which backend saturated earliest.")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:
            "Write a self-contained HTML report for the database: aggregate summary plus \
             one convergence curve per run that recorded a timeline.")
  in
  let run dir counts_out timeline html =
    handle_errors (fun () ->
        let db = Db.load dir in
        print_string (Db.render_report db);
        if timeline then print_string (Db.render_timelines db);
        (match html with
        | None -> ()
        | Some path ->
            let timelines =
              List.filter_map
                (fun (r : Db.run) ->
                  Option.map
                    (fun tl ->
                      (Printf.sprintf "%s %s/%s" r.Db.id r.Db.design r.Db.backend, tl))
                    (Db.load_timeline db r))
                (Db.ok_runs db)
            in
            Sic_coverage.Html_report.save path
              ~title:("coverage database " ^ dir)
              ~timelines
              ~excluded:(Db.excluded_names db)
              (Db.aggregate db));
        match counts_out with
        | None -> ()
        | Some path -> Counts.save path (Db.removal_counts db))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Merged coverage summary across all runs; --timeline adds convergence sparklines, \
          --html writes a report page, --save-counts exports the aggregate for §5.3 \
          removal (sic scan --db does this in one step).")
    Term.(const run $ db_dir_arg $ counts_out_arg $ timeline_flag $ html_arg)

let db_diff_cmd =
  let before = Arg.(required & pos 1 (some string) None & info [] ~docv:"RUN1") in
  let after = Arg.(required & pos 2 (some string) None & info [] ~docv:"RUN2") in
  let run dir before after =
    handle_errors (fun () ->
        print_string (Counts.render_diff (Db.diff (Db.load dir) ~before ~after)))
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two runs' coverage by run id.")
    Term.(const run $ db_dir_arg $ before $ after)

let db_rank_cmd =
  let threshold =
    Arg.(
      value
      & opt int 1
      & info [ "threshold" ] ~docv:"N" ~doc:"A point counts as covered at $(docv) hits.")
  in
  let json_flag =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable output: threshold, non-excluded points total/covered, the \
             uncovered and excluded point lists, and the pick with per-run marginal gain.")
  in
  let run dir threshold json =
    handle_errors (fun () ->
        let db = Db.load dir in
        if json then print_endline (Sic_obs.Json.to_string (Db.rank_json ~threshold db))
        else print_string (Db.render_rank ~threshold db))
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:
         "Greedy set cover over the runs: the (approximately) minimal subset whose merged \
          coverage equals the whole database's — test-suite minimization.")
    Term.(const run $ db_dir_arg $ threshold $ json_flag)

let db_cmd =
  Cmd.group
    (Cmd.info "db" ~doc:"The persistent coverage database (one directory, many runs).")
    [ db_init_cmd; db_add_cmd; db_list_cmd; db_report_cmd; db_diff_cmd; db_rank_cmd ]

(* ------------------------------------------------------------------ *)
(* Campaigns                                                            *)
(* ------------------------------------------------------------------ *)

(* Forward every run the campaign just recorded (manifest index >=
   [already]) to a running coverage server — the distributed §5.3 loop:
   many local producers, one merged remote report. The push wire format
   is the counts v1 text itself, so this is just re-uploading the files
   the campaign wrote. *)
let push_campaign_runs ~url ~worker ~db_dir ~already =
  let db = Db.load db_dir in
  let fresh = List.filteri (fun i _ -> i >= already) (Db.runs db) in
  let pushed = ref 0 in
  (try
     List.iter
       (fun (r : Db.run) ->
         match r.Db.status with
         | Db.Run_failed _ -> ()
         | Db.Run_ok ->
             let resp =
               Serve.Client.push_run ~worker ~url ~design:r.Db.design ~backend:r.Db.backend
                 ~workload:r.Db.workload ~seed:r.Db.seed ~cycles:r.Db.cycles
                 (Db.load_counts db r)
             in
             if resp.Serve.Client.status <> 201 then begin
               Printf.eprintf "push: %s/runs answered %d %s\n%s" url
                 resp.Serve.Client.status resp.Serve.Client.reason resp.Serve.Client.body;
               exit 1
             end;
             incr pushed)
       fresh
   with
  | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "push: cannot reach %s: %s\n" url (Unix.error_message e);
      exit 1
  | Serve.Client.Error m ->
      Printf.eprintf "push: %s\n" m;
      exit 1);
  Printf.printf "pushed %d of %d new runs to %s\n" !pushed (List.length fresh) url

(* The worker id campaign telemetry travels under: one campaign process
   = one producer on the server's dashboard. *)
let campaign_worker_id () =
  Printf.sprintf "%s-%d" (try Unix.gethostname () with _ -> "local") (Unix.getpid ())

(* Forward the orchestrator's worker heartbeats to a running
   coverage server (POST /heartbeat) so its /watch subscribers see live
   per-worker health while the campaign runs. Strictly best-effort and
   wall-clock throttled: the first failure prints one warning and
   disables forwarding — telemetry must never sink a campaign. *)
let heartbeat_forwarder ~url ~worker : Fleet.job_event -> unit =
  let host, port, _ = Serve.Client.parse_url url in
  let conn = ref None in
  let dead = ref false in
  let last = ref 0. in
  fun ev ->
    match ev with
    | Fleet.Job_heartbeat { job; hb_cycles; hb_covered } when not !dead ->
        let now = Unix.gettimeofday () in
        if now -. !last >= 0.5 then begin
          last := now;
          try
            let c =
              match !conn with
              | Some c -> c
              | None ->
                  let c = Serve.Client.connect ~host ~port in
                  conn := Some c;
                  c
            in
            let target =
              Printf.sprintf "/heartbeat?worker=%s&job=%d&design=%s&backend=%s&cycles=%d&covered=%d"
                (Serve.Http.percent_encode worker)
                job.Fleet.index
                (Serve.Http.percent_encode job.Fleet.design)
                (Fleet.backend_name job.Fleet.backend)
                hb_cycles hb_covered
            in
            ignore (Serve.Client.request c ~meth:"POST" ~target ())
          with _ ->
            dead := true;
            (match !conn with Some c -> Serve.Client.close c | None -> ());
            conn := None;
            Printf.eprintf "\npush: heartbeat forwarding to %s disabled (server unreachable)\n%!"
              url
        end
    | _ -> ()

let campaign_backend_names = String.concat ", " (List.map Fleet.backend_name Fleet.all_backends)

let campaign_cmd =
  let db_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR" ~doc:"Coverage database to run into (created if missing).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Parallel worker processes.")
  in
  let designs_arg =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "design" ] ~docv:"NAME" ~doc:"Built-in design (repeatable).")
  in
  let backends_arg =
    Arg.(
      value
      & opt_all string [ "compiled" ]
      & info [ "backend" ] ~docv:"NAME"
          ~doc:
            ("Backend for the single default wave (repeatable): " ^ campaign_backend_names
           ^ ". Ignored when --waves is given."))
  in
  let waves_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "waves" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated waves, each a +-separated backend group, cheap to expensive \
             — e.g. 'interp+compiled,fuzz,bmc'. After each wave, covered points are \
             removed from the next wave's instrumentation (§5.3).")
  in
  let seeds_arg =
    Arg.(
      value
      & opt int 1
      & info [ "seeds" ] ~docv:"K" ~doc:"Runs per (design, backend) within a wave.")
  in
  let execs_arg =
    Arg.(value & opt int 300 & info [ "execs" ] ~docv:"N" ~doc:"Fuzz executions per fuzz job.")
  in
  let bound_arg =
    Arg.(value & opt int 10 & info [ "bound" ] ~docv:"K" ~doc:"BMC bound per bmc job.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt int 1
      & info [ "threshold" ] ~docv:"N"
          ~doc:"Inter-wave removal threshold: strip points covered at least $(docv) times.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC" ~doc:"Kill any job running longer than $(docv) seconds.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 1
      & info [ "retries" ] ~docv:"R"
          ~doc:"Extra attempts for a crashed, timed-out or failing job before recording it \
                as a failed run.")
  in
  let scan_width_arg =
    Arg.(
      value & opt int 16 & info [ "scan-width" ] ~docv:"W" ~doc:"FPGA coverage counter width.")
  in
  let inject_crash_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject-crash" ] ~docv:"IDX"
          ~doc:
            "Testing aid: the worker of the job with this global index kills itself \
             (SIGKILL) on every attempt, exercising failure isolation.")
  in
  let lanes_arg =
    Arg.(
      value
      & opt int 1
      & info [ "lanes" ] ~docv:"K"
          ~doc:
            "Runs packed bit-parallel into each lanes-backend job (1-62): every worker \
             process advances $(docv) independent stimulus streams per tape pass, so \
             -j N --lanes K multiplies process by lane parallelism. Pure scheduling: \
             the recorded runs, seeds and database bytes are identical at any $(docv).")
  in
  let timeline_every_arg =
    Arg.(
      value
      & opt int 100
      & info [ "timeline-every" ] ~docv:"N"
          ~doc:
            "Sample each run's coverage-convergence timeline every $(docv) budget units \
             (cycles or execs); persisted per run in the database. 0 disables sampling.")
  in
  let progress_flag =
    Arg.(
      value
      & flag
      & info [ "progress" ]
          ~doc:
            "Render a live single-line campaign status to stderr: jobs done/failed/running, \
             covered points (union-max estimate from worker heartbeats), throughput, ETA.")
  in
  let push_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "push" ] ~docv:"URL"
          ~doc:
            "After the campaign, POST every run it recorded to a running coverage server \
             (sic serve) at $(docv), e.g. http://127.0.0.1:8080. The server's merge is \
             idempotent (union-max), so re-pushing is safe.")
  in
  let profile_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Engine hotspot profiling: compiled-engine workers count value-changing \
             evaluations per tape instruction and ship the profile back with their \
             result; the merged (deterministic, -j independent) artifact is written to \
             $(docv). Feed it to sic cover --heat for per-line heat in the HTML report.")
  in
  let run db_dir jobs designs metrics backends waves seeds lanes cycles execs bound seed
      threshold timeout retries scan_width inject_crash timeline_every progress push
      profile_out profile trace =
    handle_errors (fun () ->
        let summary, already, worker =
          with_telemetry ~profile ~trace @@ fun () ->
        let parse_backend s =
          match Fleet.backend_of_string s with
          | Some b -> b
          | None ->
              Printf.eprintf "unknown backend %s; available: %s\n" s campaign_backend_names;
              exit 2
        in
        let waves =
          match waves with
          | None -> [ List.map parse_backend backends ]
          | Some spec ->
              String.split_on_char ',' spec
              |> List.filter (fun s -> String.trim s <> "")
              |> List.map (fun group ->
                     String.split_on_char '+' group |> List.map String.trim
                     |> List.map parse_backend)
        in
        let designs =
          List.map
            (fun name ->
              let c = load_circuit ~file:None ~design:(Some name) in
              (name, fst (instrument metrics c)))
            designs
        in
        let db = Db.open_or_init db_dir in
        let already = List.length (Db.runs db) in
        let spec =
          {
            Fleet.designs;
            waves;
            seeds;
            lanes;
            cycles;
            execs;
            bound;
            scan_width;
            master_seed = seed;
            jobs;
            timeout_s = timeout;
            retries;
            threshold;
            timeline_every;
            profile = profile_out <> None;
          }
        in
        let inject_crash =
          match inject_crash with None -> fun _ -> false | Some i -> fun idx -> idx = i
        in
        let prog =
          if progress then Some (Fleet.Progress.create ~total:(Fleet.spec_total_jobs spec) ())
          else None
        in
        let worker = campaign_worker_id () in
        let forward =
          match push with Some url -> Some (heartbeat_forwarder ~url ~worker) | None -> None
        in
        let consumers =
          List.filter_map Fun.id
            [ Option.map (fun p ev -> Fleet.Progress.on_event p ev) prog; forward ]
        in
        let on_event =
          match consumers with [] -> None | cs -> Some (fun ev -> List.iter (fun f -> f ev) cs)
        in
        let summary = Fleet.run_campaign ~inject_crash ?on_event ~db spec in
        (match prog with
        | Some p -> Fleet.Progress.finish ~skipped:summary.Fleet.skipped p
        | None -> ());
        (summary, already, worker)
        in
        print_string (Fleet.render_summary summary);
        (match profile_out with
        | None -> ()
        | Some path ->
            Profile.save path summary.Fleet.profile;
            Printf.printf "engine profile: %s (%d tape section%s)\n" path
              (List.length summary.Fleet.profile)
              (if List.length summary.Fleet.profile = 1 then "" else "s"));
        (match push with
        | None -> ()
        | Some url -> push_campaign_runs ~url ~worker ~db_dir ~already);
        (* nonzero exit so CI notices jobs that exhausted their retries;
           deferred past the telemetry finalizer, which exit would skip *)
        if summary.Fleet.failed > 0 then begin
          Printf.eprintf "campaign: %d of %d jobs failed after retries (sic db list %s)\n"
            summary.Fleet.failed summary.Fleet.total_jobs db_dir;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run designs x backends x seeds in parallel forked workers into a coverage \
          database, wave by wave with §5.3 removal between waves. The database contents \
          are byte-for-byte independent of -j. Exits nonzero if any job exhausted its \
          retries.")
    Term.(
      const run $ db_arg $ jobs_arg $ designs_arg $ metrics_arg $ backends_arg $ waves_arg
      $ seeds_arg $ lanes_arg $ cycles_arg $ execs_arg $ bound_arg $ seed_arg
      $ threshold_arg $ timeout_arg $ retries_arg $ scan_width_arg $ inject_crash_arg
      $ timeline_every_arg $ progress_flag $ push_arg $ profile_out_arg $ profile_flag
      $ trace_flag)

(* ------------------------------------------------------------------ *)
(* Coverage closure                                                     *)
(* ------------------------------------------------------------------ *)

let close_cmd =
  let db_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR" ~doc:"Coverage database to close into (created if missing).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Parallel worker processes.")
  in
  let bound_arg =
    Arg.(
      value
      & opt int 10
      & info [ "bound" ] ~docv:"K"
          ~doc:
            "BMC unrolling depth per point; a point unreachable within $(docv) cycles is \
             excluded as formally dead.")
  in
  let execs_arg =
    Arg.(
      value
      & opt int 300
      & info [ "execs" ] ~docv:"N"
          ~doc:"Budget of each witness-seeded fuzz wave; 0 disables the fuzz phase.")
  in
  let max_waves_arg =
    Arg.(
      value
      & opt int 8
      & info [ "max-waves" ] ~docv:"W"
          ~doc:"Stop after $(docv) waves even without a fixpoint (safety valve).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt int 1
      & info [ "threshold" ] ~docv:"N"
          ~doc:"A point whose aggregate count is below $(docv) is still open.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC" ~doc:"Kill any job running longer than $(docv) seconds.")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 1
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Extra attempts for a crashed or timed-out job; a point whose BMC job \
             exhausts them stays open and is retried next wave.")
  in
  let corpus_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Save every witness-derived fuzz seed here when the loop stops — sic fuzz \
             --corpus $(docv) resumes mutation from the hard-to-reach states.")
  in
  let push_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "push" ] ~docv:"URL"
          ~doc:
            "After closure, POST every run the loop recorded to a running coverage server \
             (sic serve) at $(docv).")
  in
  let run db_dir jobs file design metrics bound execs max_waves seed threshold timeout
      retries corpus_out push profile trace =
    handle_errors (fun () ->
        let outcome, already, worker =
          with_telemetry ~profile ~trace @@ fun () ->
          let c = load_circuit ~file ~design in
          let low, _dbs = instrument metrics c in
          let design_name =
            match (design, file) with
            | Some d, _ -> d
            | None, Some f -> Filename.remove_extension (Filename.basename f)
            | None, None -> low.Sic_ir.Circuit.circuit_name
          in
          let db = Db.open_or_init db_dir in
          let already = List.length (Db.runs db) in
          let config =
            {
              Sic_close.Close.design = design_name;
              circuit = low;
              bound;
              execs;
              jobs;
              timeout_s = timeout;
              retries;
              max_waves;
              master_seed = seed;
              threshold;
            }
          in
          let worker = campaign_worker_id () in
          let on_event =
            match push with Some url -> Some (heartbeat_forwarder ~url ~worker) | None -> None
          in
          let outcome =
            Sic_close.Close.close ~log:(fun line -> Printf.printf "%s\n%!" line) ?on_event
              ~db config
          in
          (outcome, already, worker)
        in
        print_string (Sic_close.Close.render_outcome outcome);
        (match corpus_out with
        | None -> ()
        | Some dir ->
            Sic_fuzz.Fuzzer.save_corpus dir outcome.Sic_close.Close.corpus;
            Printf.printf "corpus : saved to %s\n" dir);
        (match push with
        | None -> ()
        | Some url -> push_campaign_runs ~url ~worker ~db_dir ~already);
        (* nonzero exit when points stay open: closure did not close *)
        if outcome.Sic_close.Close.points_open > 0 then begin
          Printf.eprintf "close: %d point(s) still open (sic db report %s)\n"
            outcome.Sic_close.Close.points_open db_dir;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "close"
       ~doc:
         "Automatic coverage closure: per wave, BMC every uncovered point in parallel, \
          harvest the witnesses into the database, recycle them as fuzzer corpus seeds, \
          and exclude points proven unreachable within the bound — iterating to a \
          fixpoint. Database bytes are independent of -j. Exits nonzero if points remain \
          neither covered nor excluded.")
    Term.(
      const run $ db_arg $ jobs_arg $ file_arg $ design_arg $ metrics_arg $ bound_arg
      $ execs_arg $ max_waves_arg $ seed_arg $ threshold_arg $ timeout_arg $ retries_arg
      $ corpus_out_arg $ push_arg $ profile_flag $ trace_flag)

(* ------------------------------------------------------------------ *)
(* The coverage server                                                  *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let db_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR"
          ~doc:"Coverage database directory to serve (created if missing).")
  in
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind (0.0.0.0 for all interfaces).")
  in
  let port_arg =
    Arg.(
      value
      & opt int 8080
      & info [ "port" ] ~docv:"P" ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let run db_dir host port threads profile trace =
    handle_errors (fun () ->
        with_telemetry ~profile ~trace @@ fun () ->
        ignore (Db.open_or_init db_dir);
        Serve.run ~host ~port ~threads ~db_dir ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a coverage database over HTTP: POST /runs ingests counts files from any \
          producer on any host, GET /report[.html] serves the merged (union-max) coverage, \
          plus /runs, /rank, /diff, /timelines, /watch (live SSE), /dashboard, /metrics \
          (JSON or Prometheus), /healthz. Stops gracefully on SIGINT/SIGTERM.")
    Term.(const run $ db_arg $ host_arg $ port_arg $ threads_arg $ profile_flag $ trace_flag)

(* ------------------------------------------------------------------ *)
(* Watching a live campaign                                             *)
(* ------------------------------------------------------------------ *)

let watch_cmd =
  let url_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"URL" ~doc:"Coverage server root, e.g. http://127.0.0.1:8080.")
  in
  let runs_arg =
    Arg.(
      value
      & opt int 0
      & info [ "runs" ] ~docv:"N"
          ~doc:"Exit after observing $(docv) accepted runs (0 = watch until the server drains).")
  in
  let run url max_runs =
    handle_errors (fun () ->
        let module Json = Sic_obs.Json in
        let prog = Fleet.Progress.create ~label:"watch" ~total:0 () in
        let runs = ref 0 and failed = ref 0 and workers = ref 0 in
        let covered = ref 0 and total = ref 0 and units = ref 0 in
        let repaint () =
          Fleet.Progress.update prog ~done_:!runs ~failed:!failed ~running:!workers
            ~covered:!covered ~points:!total ~units:!units
        in
        let intn k j d = match Json.int_member k j with Some n -> n | None -> d in
        let absorb j =
          runs := intn "runs" j !runs;
          failed := intn "failed" j !failed;
          workers := intn "workers" j !workers;
          covered := intn "covered" j !covered;
          total := intn "total" j !total;
          units := intn "units" j !units
        in
        let seen = ref 0 in
        let on_event ~event ~data =
          (match try Some (Json.parse data) with Json.Parse_error _ -> None with
          | None -> ()
          | Some j -> (
              match event with
              | "hello" | "delta" ->
                  absorb j;
                  if event = "delta" then begin
                    incr seen;
                    (* newer servers ship the cumulative units figure in
                       every delta (absorbed above); older ones only carry
                       the run's own cycle count, so accumulate it *)
                    if Json.int_member "units" j = None then
                      units := !units + intn "cycles" j 0
                  end;
                  repaint ()
              | "heartbeat" ->
                  workers := intn "workers" j !workers;
                  repaint ()
              | _ -> ()));
          not (max_runs > 0 && !seen >= max_runs)
        in
        (try Serve.Client.watch ~on_event url with
        | Serve.Client.Error m ->
            Fleet.Progress.finish prog;
            Printf.eprintf "watch: %s\n" m;
            exit 1
        | Unix.Unix_error (e, _, _) ->
            Fleet.Progress.finish prog;
            Printf.eprintf "watch: cannot reach %s: %s\n" url (Unix.error_message e);
            exit 1);
        Fleet.Progress.finish prog)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Subscribe to a coverage server's GET /watch SSE stream and render a live status \
          line: accepted runs, covered points, active workers, throughput. Exits when the \
          server drains, or after --runs N accepted runs.")
    Term.(const run $ url_arg $ runs_arg)

(* ------------------------------------------------------------------ *)
(* Telemetry tailing                                                    *)
(* ------------------------------------------------------------------ *)

let tail_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Telemetry NDJSON file (a --profile export).")
  in
  let follow_flag =
    Arg.(
      value
      & flag
      & info [ "f"; "follow" ]
          ~doc:"Keep the file open and pretty-print new events as they are appended.")
  in
  let run path follow =
    handle_errors (fun () ->
        let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let pending = Buffer.create 4096 in
            let chunk = Bytes.create 65536 in
            let rec print_complete_lines () =
              let s = Buffer.contents pending in
              match String.index_opt s '\n' with
              | None -> ()
              | Some i ->
                  let line = String.sub s 0 i in
                  Buffer.clear pending;
                  Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
                  if String.trim line <> "" then print_endline (Obs.pp_ndjson_line line);
                  print_complete_lines ()
            in
            let stop = ref false in
            while not !stop do
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  if follow then Unix.sleepf 0.2
                  else begin
                    (* a writer may not have terminated its last line yet *)
                    if String.trim (Buffer.contents pending) <> "" then
                      print_endline (Obs.pp_ndjson_line (Buffer.contents pending));
                    stop := true
                  end
              | n ->
                  Buffer.add_subbytes pending chunk 0 n;
                  print_complete_lines ();
                  flush stdout
            done))
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Pretty-print a telemetry NDJSON file (spans indented by depth, gauges, instants, \
          worker heartbeats); with -f, follow it live like tail -f.")
    Term.(const run $ file_arg $ follow_flag)

let main =
  Cmd.group
    (Cmd.info "sic" ~version:"1.0.0"
       ~doc:"Simulator-independent coverage for RTL hardware languages.")
    [
      emit_cmd; lower_cmd; cover_cmd; merge_cmd; diff_cmd; bmc_cmd; fuzz_cmd; scan_cmd;
      stats_cmd; profile_cmd; hotspots_cmd; db_cmd; campaign_cmd; close_cmd; serve_cmd;
      watch_cmd;
      tail_cmd;
    ]

let () =
  (* process-wide: a vanished peer (fleet result pipe, serve/push socket)
     must surface as EPIPE on the write, never as SIGPIPE death *)
  Serve.ignore_sigpipe ();
  exit (Cmd.eval main)
