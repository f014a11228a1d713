(** [close-uart]: coverage closure of line-instrumented uart, from an
    empty database to the fixpoint, at [--bound 20] and [-j 1].

    Chosen because it is the only workload where the formal layer
    (unrolling, Tseitin encoding, CDCL) and the closure loop do the work,
    and it runs every closure phase: witnessed points, points excluded as
    unreachable within the bound, and a witness-seeded fuzz wave. Proof
    checking or k-induction would cost time here and nowhere else.

    A round is one [Close.close] into a fresh database. Its jobs run in
    forked workers; traced rounds re-execute each one in-process
    afterwards ([Fleet.run_job], and for BMC jobs the same
    [Bmc.check_covers] call on the job's point and bound) to split the
    job's time between formal, witness replay, fuzzing and the fleet's own
    overhead. *)

module Fleet = Sic_fleet.Fleet
module Close = Sic_close.Close
module Db = Sic_db.Db
module Bmc = Sic_formal.Bmc

let bound = 20
let setups_per_round = 7

let setup ~work i =
  let c = Bench.phase "frontend.elab" (fun () -> Sic_designs.Uart.circuit ()) in
  let ic = Bench.phase "cover.instrument" (fun () -> fst (Sic_coverage.Line_coverage.instrument c)) in
  let low = Bench.phase "passes.lower" (fun () -> Sic_passes.Compile.lower ic) in
  ignore (Bench.phase "sim.build" (fun () -> Sic_sim.Compiled.create low));
  let dir = Filename.concat work (Printf.sprintf "setup-%d.db" i) in
  ignore (Bench.phase "db.init" (fun () -> Db.init dir));
  (low, dir)

let config low ~seed =
  { (Close.default_config ~design:"uart" ~circuit:low) with Close.bound; jobs = 1; master_seed = seed }

type round = {
  wall : float;
  outcome : Close.outcome;
  jobs : Bench.job_span list;  (** dropped once the round is processed *)
  job_s : float list;
  failed_jobs : int;
  waves_logged : int;
  traced : bool;
}

let run_round low ~seed ~work ~trace i =
  let traced = Bench.traced_round ~trace i in
  let dir = Filename.concat work (Printf.sprintf "round-%d.db" i) in
  let db = Db.init dir in
  let on_event, jobs = Bench.job_recorder () in
  let waves = ref 0 in
  Trace.on := traced;
  let t0 = Bench.now () in
  let outcome =
    Trace.with_span "round" (fun () ->
        Close.close ~log:(fun _ -> incr waves) ~on_event ~db (config low ~seed))
  in
  let t1 = Bench.now () in
  Trace.on := false;
  let jobs = jobs () in
  {
    wall = t1 -. t0;
    outcome;
    jobs;
    job_s = List.map (fun (j : Bench.job_span) -> j.Bench.j1 -. j.Bench.j0) jobs;
    failed_jobs = List.length (List.filter (fun (j : Bench.job_span) -> Result.is_error j.Bench.outcome) jobs);
    waves_logged = !waves;
    traced;
  }

let is_bmc (js : Bench.job_span) = js.Bench.job.Fleet.backend = Fleet.Bmc_witness

type replay = {
  span_s : float;
  run_job_s : float;
  bmc_s : float option;  (** BMC jobs only *)
  sat : int;
  unsat : int;
  codec_s : float;
}

(* one job again, in-process: its spans become attributed children *)
let replay_job root (js : Bench.job_span) : replay =
  let job = js.Bench.job in
  let span = Trace.record ~parent:root ~t0:js.Bench.j0 ~t1:js.Bench.j1 "fleet.job" in
  let res, run_job_s = Bench.time (fun () -> Fleet.run_job job) in
  let payload, enc = Bench.time (fun () -> Fleet.encode_ok res) in
  let _, dec = Bench.time (fun () -> Fleet.decode payload) in
  let bmc =
    if is_bmc js then
      Some (Bench.time (fun () -> Bmc.check_covers ~bound:job.Fleet.budget ~covers:job.Fleet.covers job.Fleet.circuit))
    else None
  in
  let parts =
    match bmc with
    | Some (_, bmc_s) -> [ ("formal.bmc", bmc_s); ("sim.replay", Float.max 0. (run_job_s -. bmc_s)) ]
    | None -> [ ("fuzz.job", run_job_s) ]
  in
  Bench.attribute span js.Bench.j0 (parts @ [ ("fleet.codec", enc +. dec) ]);
  let count f =
    match bmc with
    | Some (report, _) -> List.length (List.filter (fun (_, v) -> f v) report.Bmc.results)
    | None -> 0
  in
  {
    span_s = js.Bench.j1 -. js.Bench.j0;
    run_job_s;
    bmc_s = Option.map snd bmc;
    sat = count (function Bmc.Reachable _ -> true | Bmc.Unreachable_within_bound -> false);
    unsat = count (function Bmc.Reachable _ -> false | Bmc.Unreachable_within_bound -> true);
    codec_s = enc +. dec;
  }

let layer_of = function
  | "round" -> "close.loop"
  | "fleet.job" -> "fleet.overhead"
  | name -> name

let resolved (o : Close.outcome) = o.Close.points_covered + o.Close.points_excluded

let run ~seed ~seconds ~trace ~work : Bench.result =
  let replays = ref [] in
  let setup_s, rs =
    Bench.rounds ~seconds ~setups_per_round ~setup:(setup ~work) (fun (low, _) i ->
        let r = run_round low ~seed ~work ~trace i in
        if r.traced then begin
          let root = Bench.last_round () in
          replays := List.map (replay_job root) r.jobs :: !replays
        end;
        { r with jobs = [] })
  in
  let first = List.hd rs in
  let signature (r : round) =
    (r.outcome.Close.points_covered, r.outcome.Close.points_excluded, List.length r.outcome.Close.waves)
  in
  let bmc_failed (r : round) =
    List.fold_left (fun acc (w : Close.wave_stats) -> acc + w.Close.bmc_failed) 0 r.outcome.Close.waves
  in
  let gates =
    [
      Bench.gate "close: fixpoint reached with zero points open, covered + excluded = total"
        (List.for_all
           (fun r ->
             let o = r.outcome in
             o.Close.fixpoint && o.Close.points_open = 0 && resolved o = o.Close.points_total)
           rs)
        (Printf.sprintf "%d covered + %d excluded of %d" first.outcome.Close.points_covered
           first.outcome.Close.points_excluded first.outcome.Close.points_total);
      Bench.gate "close: every round closes identically, with no failed BMC job"
        (List.for_all (fun r -> signature r = signature first && bmc_failed r = 0) rs)
        (Printf.sprintf "%d rounds" (List.length rs));
    ]
  in
  let plain = List.filter (fun r -> not r.traced) rs in
  let quiet = Stats.quiet ~seconds:(fun r -> r.wall) ~ops:(fun r -> List.length r.job_s) plain in
  let traced = List.filter (fun r -> r.traced) rs in
  let close_s = Array.of_list (List.map (fun r -> r.wall) quiet) in
  let rate = Array.of_list (List.map (fun r -> float_of_int (resolved r.outcome) /. r.wall) quiet) in
  let lat = Array.of_list (List.concat_map (fun r -> r.job_s) quiet) in
  let attempted = List.fold_left (fun acc r -> acc + List.length r.job_s) 0 rs in
  let failed = List.fold_left (fun acc r -> acc + r.failed_jobs) 0 rs in
  let shares = Trace.layer_totals ~root:"round" ~layer_of (Trace.spans ()) in
  let per_round = !replays in
  let flat = List.concat per_round in
  let layers =
    match traced with
    | [] -> []
    | t :: _ ->
        let bmc = Array.of_list (List.filter_map (fun rp -> rp.bmc_s) flat) in
        let phase pick =
          Stats.median
            (Array.of_list
               (List.map
                  (fun rps ->
                    List.fold_left (fun acc rp -> if pick rp then acc +. rp.span_s else acc) 0. rps)
                  per_round))
        in
        let first_round = List.hd (List.rev per_round) in
        let sum f = float_of_int (List.fold_left (fun acc rp -> acc + f rp) 0 first_round) in
        [
          ("fleet.job_ms", Bench.median_ms (Array.of_list (List.map (fun rp -> rp.span_s) flat)));
          ( "fleet.overhead_ms",
            Bench.median_ms (Array.of_list (List.map (fun rp -> rp.span_s -. rp.run_job_s) flat)) );
          ("fleet.codec_us", Stats.median (Array.of_list (List.map (fun rp -> rp.codec_s) flat)) *. 1e6);
          ("formal.bmc_p50_ms", Bench.pct_ms bmc 50.);
          ("formal.bmc_p90_ms", Bench.pct_ms bmc 90.);
          ("formal.sat", sum (fun rp -> rp.sat));
          ("formal.unsat", sum (fun rp -> rp.unsat));
          ("close.bmc_phase_s", phase (fun rp -> rp.bmc_s <> None));
          ("close.fuzz_phase_s", phase (fun rp -> rp.bmc_s = None));
          ("close.waves", float_of_int t.waves_logged);
          ("close.points_excluded", float_of_int t.outcome.Close.points_excluded);
          ( "bench.trace_overhead",
            Bench.trace_overhead
              ~traced:(List.map (fun r -> r.wall) traced)
              ~untraced:(List.map (fun r -> r.wall) plain) );
        ]
  in
  let o = first.outcome in
  {
    Bench.attempted = attempted;
    failed;
    e2e =
      (if trace then []
       else
         [
           ("setup_s", Stats.quiet_median setup_s);
           ("throughput_per_s", Stats.median rate);
           ("op_p50_ms", Bench.op_p50_ms lat);
           ("points_covered", float_of_int o.Close.points_covered);
         ]);
    report =
      [
        Bench.row ~samples:(Array.length setup_s) "setup_s" "s" (Stats.quiet_median setup_s);
        Bench.row ~samples:(Array.length rate) "throughput_per_s" "1/s" (Stats.median rate);
        Bench.row ~samples:(Array.length close_s) "close_s" "s" (Stats.median close_s);
      ]
      @ Bench.pct_row "op_p50_ms" lat 50.
      @ Bench.pct_row "op_p90_ms" lat 90.
      @ [
          Bench.row "points_covered" "count" (float_of_int o.Close.points_covered);
          Bench.row "points_excluded" "count" (float_of_int o.Close.points_excluded);
        ];
    layers;
    shares;
    gates;
  }
