(** Coverage-closure throughput: [sic close] on the closure fixture at
    -j 1 and -j 2, reporting waves-to-fixpoint, points resolved (covered
    or excluded) per second and wall time, written to BENCH_close.json
    for CI tracking. Also re-checks the loop's determinism promise: the
    final database (manifest, counts, exclusion artifact) is
    byte-identical across -j. A formal section times the single-point BMC
    queries under closure: uart at bound 20, and in full mode two
    riscv-mini line points at bound 12. SIC_BENCH_SMOKE=1 shrinks the fuzz
    budget and keeps uart only, so CI can afford the run. *)

module Close = Sic_close.Close
module Db = Sic_db.Db
module Json = Sic_obs.Json
module Line = Sic_coverage.Line_coverage

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The formal layer under closure: single-point BMC queries as a closure
   wave issues them, timed in-process (min of [rounds] passes over the
   point set). Unrolling is timed on its own and subtracted from the whole
   query to give the solve time; vars and clauses sum the encodings. *)
let formal_row ~label ~circuit ~bound ~rounds points =
  let min_ms f =
    let best = ref infinity in
    for _ = 1 to rounds do
      let (), dt = Timing.wall f in
      best := Float.min !best dt
    done;
    !best *. 1000.
  in
  let unroll p = Sic_formal.Unroll.unroll ~covers:[ p ] circuit ~bound in
  let unroll_ms = min_ms (fun () -> List.iter (fun p -> ignore (unroll p)) points) in
  let query_ms =
    min_ms (fun () ->
        List.iter (fun p -> ignore (Sic_formal.Bmc.check_covers ~bound ~covers:[ p ] circuit)) points)
  in
  let vars, clauses =
    List.fold_left
      (fun (v, c) p ->
        let solver = Sic_formal.Gate.solver (unroll p).Sic_formal.Unroll.ctx in
        (v + Sic_formal.Sat.nb_vars solver, c + Sic_formal.Sat.nb_clauses solver))
      (0, 0) points
  in
  let solve_ms = Float.max 0. (query_ms -. unroll_ms) in
  Timing.row
    "  formal %s @%d, %d single-point quer%s: unroll %7.1f ms + solve %7.1f ms  (%d vars, %d clauses)\n"
    label bound (List.length points)
    (if List.length points = 1 then "y" else "ies")
    unroll_ms solve_ms vars clauses;
  Json.Obj
    [
      ("label", Json.String label);
      ("bound", Json.Int bound);
      ("queries", Json.Int (List.length points));
      ("unroll_ms", Json.Float unroll_ms);
      ("solve_ms", Json.Float solve_ms);
      ("vars", Json.Int vars);
      ("clauses", Json.Int clauses);
    ]

(* uart's every line point at bound 20 (a closure wave from an empty
   database); in full mode also two riscv-mini line points at bound 12 *)
let formal_rows ~smoke =
  let uart = Sic_passes.Compile.lower (fst (Line.instrument (Sic_designs.Uart.circuit ()))) in
  let uart_points = Sic_ir.Circuit.covers_of (Sic_ir.Circuit.main uart) in
  let uart_row =
    formal_row ~label:"uart" ~circuit:uart ~bound:20 ~rounds:(if smoke then 3 else 12) uart_points
  in
  uart_row
  ::
  (if smoke then []
   else
     let rv = Sic_passes.Compile.lower (fst (Line.instrument (Sic_designs.Riscv_mini.circuit ()))) in
     List.map
       (fun p -> formal_row ~label:("riscv-mini " ^ p) ~circuit:rv ~bound:12 ~rounds:3 [ p ])
       [ "core.l_Core_26"; "core.l_Core_62" ])

let run () =
  let smoke = Sys.getenv_opt "SIC_BENCH_SMOKE" <> None in
  Timing.header
    (Printf.sprintf "close: formal <-> fuzz closure loop on closefix%s"
       (if smoke then " (smoke)" else ""));
  let low = Sic_passes.Compile.lower (fst (Line.instrument (Sic_designs.Closefix.circuit ()))) in
  let results =
    List.map
      (fun jobs ->
        let dir = Printf.sprintf "bench_close_j%d.db" jobs in
        if Sys.file_exists dir then rm_rf dir;
        let db = Db.init dir in
        let config =
          {
            (Close.default_config ~design:"closefix" ~circuit:low) with
            bound = 8;
            execs = (if smoke then 100 else 300);
            jobs;
          }
        in
        let (o : Close.outcome), dt = Timing.wall (fun () -> Close.close ~db config) in
        if o.Close.points_open > 0 then
          failwith (Printf.sprintf "close left %d points open" o.Close.points_open);
        let resolved = o.Close.points_covered + o.Close.points_excluded in
        Timing.row
          "  -j %d: %d waves to fixpoint, %d covered + %d excluded in %6.2fs  (%5.1f points/s)\n"
          jobs (List.length o.Close.waves) o.Close.points_covered o.Close.points_excluded dt
          (float_of_int resolved /. dt);
        (jobs, dir, o, dt))
      [ 1; 2 ]
  in
  (* determinism: every database file byte-identical across -j *)
  let _, dir1, _, _ = List.hd results in
  let files dir =
    List.sort compare
      (List.filter (fun f -> f <> "lock") (Array.to_list (Sys.readdir dir)))
  in
  List.iter
    (fun (jobs, dir, _, _) ->
      if jobs <> 1 then begin
        if files dir <> files dir1 then
          failwith (Printf.sprintf "close db layout differs at -j %d" jobs);
        List.iter
          (fun f ->
            if read_file (Filename.concat dir f) <> read_file (Filename.concat dir1 f) then
              failwith (Printf.sprintf "close db file %s differs at -j %d" f jobs))
          (files dir);
        Timing.row "  -j %d database byte-identical to -j 1 (incl. exclusions.ndjson)\n" jobs
      end)
    results;
  let formal = formal_rows ~smoke in
  Timing.write_json "BENCH_close.json"
    [
      ("design", Json.String "closefix");
      ("smoke", Json.Bool smoke);
      ( "results",
        Json.List
          (List.map
             (fun (jobs, _, (o : Close.outcome), dt) ->
               let resolved = o.Close.points_covered + o.Close.points_excluded in
               Json.Obj
                 [
                   ("jobs", Json.Int jobs);
                   ("waves", Json.Int (List.length o.Close.waves));
                   ("covered", Json.Int o.Close.points_covered);
                   ("excluded", Json.Int o.Close.points_excluded);
                   ("wall_s", Json.Float dt);
                   ("points_per_s", Json.Float (float_of_int resolved /. dt));
                 ])
             results) );
      ("formal", Json.List formal);
    ];
  List.iter (fun (_, dir, _, _) -> rm_rf dir) results
