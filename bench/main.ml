(** The benchmark harness: one experiment per table and figure of the
    paper's evaluation. Run with no argument to regenerate everything, or
    pass experiment ids (table1, table2, fig8, fig9, fig10, fig11, fig12,
    sec3, sec52, sec53, sec55, ablation, campaign, close, timeline, sim,
    serve, verilog) to run a subset. *)

let experiments =
  [
    ("sec3", Sec3.run);
    ("table1", Table1.run);
    ("table2", Table2.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9_10.run);
    ("fig10", Fig9_10.run);
    ("sec52", Sec52.run);
    ("sec53", Sec53.run);
    ("fig11", Fig11.run);
    ("sec55", Sec55.run);
    ("fig12", Fig12.run);
    ("ablation", Ablation.run);
    ("campaign", Campaign.run);
    ("close", Close_bench.run);
    ("timeline", Timeline_bench.run);
    ("sim", Sim_bench.run);
    ("serve", Serve_bench.run);
    ("verilog", Verilog_bench.run);
  ]

(* fig9 and fig10 share one runner; avoid running it twice in "all" mode *)
let all_order =
  [ "sec3"; "table1"; "table2"; "fig8"; "fig9"; "sec52"; "sec53"; "fig11"; "sec55"; "fig12"; "ablation"; "campaign"; "close"; "timeline"; "sim"; "serve"; "verilog" ]

(* SIC_PROFILE=FILE records telemetry for the whole bench run and writes
   NDJSON there at exit (FILE.trace gets the Chrome trace) — the bench
   trajectories README.md describes. *)
let setup_telemetry () =
  match Sys.getenv_opt "SIC_PROFILE" with
  | None | Some "" -> ()
  | Some path ->
      Timing.use_monotonic_clock ();
      Sic_obs.Obs.enable ();
      at_exit (fun () ->
          Sic_obs.Artifact.save path (Sic_obs.Obs.ndjson_string ());
          Sic_obs.Artifact.save (path ^ ".trace") (Sic_obs.Obs.chrome_trace_string ()))

let () =
  setup_telemetry ();
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] then all_order else args in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    selected
