(** [campaign-rv]: a simulation campaign over the Verilog RISC-V SoC.

    [examples/verilog/rv.v] goes through the Verilog frontend and line
    instrumentation; each round is one [Fleet.run_campaign] into a fresh
    database: one [Compiled] wave of a few long random-stimulus jobs at
    [-j 1]. Chosen because every engine build is amortised over a whole
    job, so per-cycle stepping dominates; fork, pipe and [Db.add] still
    run once per job. Engine reuse for fuzzing is bypassed here, so its
    prediction on this workload is no change.

    Jobs run in forked workers, where nothing can be wrapped. Traced
    rounds therefore re-execute every job in-process afterwards: once
    through [Fleet.run_job] (the worker's own entry point) and once as the
    same stimulus loop over a wrapped engine, which splits the job into
    build, poke, step and harvest. *)

module Fleet = Sic_fleet.Fleet
module Db = Sic_db.Db
module Backend = Sic_sim.Backend
module Counts = Sic_coverage.Counts
module Obs = Sic_obs.Obs

let rv_path = Filename.concat "examples" (Filename.concat "verilog" "rv.v")
let jobs_per_round = 2
let cycles_per_job = 100_000
let setups_per_round = 3

(* the interpreter re-runs a prefix of one job: the whole job would take
   tens of seconds there *)
let interp_cycles = 2_000

let setup ~work i =
  let c = Bench.phase "frontend.elab" (fun () -> Sic_verilog.Verilog.load_file rv_path) in
  let ic = Bench.phase "cover.instrument" (fun () -> fst (Sic_coverage.Line_coverage.instrument c)) in
  let low = Bench.phase "passes.lower" (fun () -> Sic_passes.Compile.lower ic) in
  ignore (Bench.phase "sim.build" (fun () -> Sic_sim.Compiled.create low));
  let dir = Filename.concat work (Printf.sprintf "setup-%d.db" i) in
  ignore (Bench.phase "db.init" (fun () -> Db.init dir));
  (low, dir)

let spec low ~seed =
  {
    Fleet.default_spec with
    Fleet.designs = [ ("rv", low) ];
    waves = [ [ Fleet.Compiled ] ];
    seeds = jobs_per_round;
    cycles = cycles_per_job;
    master_seed = seed;
    jobs = 1;
  }

type round = {
  wall : float;
  summary : Fleet.summary;
  jobs : Bench.job_span list;
      (** in finishing order; dropped once the round is processed, so
          memory does not grow with the number of rounds *)
  job_s : float list;
  dir : string;
  traced : bool;
}

let run_round low ~seed ~work ~trace i =
  let traced = Bench.traced_round ~trace i in
  let dir = Filename.concat work (Printf.sprintf "round-%d.db" i) in
  let db = Db.init dir in
  let on_event, jobs = Bench.job_recorder () in
  Trace.on := traced;
  let t0 = Bench.now () in
  let summary = Trace.with_span "round" (fun () -> Fleet.run_campaign ~on_event ~db (spec low ~seed)) in
  let t1 = Bench.now () in
  Trace.on := false;
  let jobs = jobs () in
  {
    wall = t1 -. t0;
    summary;
    jobs;
    job_s = List.map (fun (j : Bench.job_span) -> j.Bench.j1 -. j.Bench.j0) jobs;
    dir;
    traced;
  }

(** The worker's stimulus loop ([Backend.reset_sequence], then
    [Backend.random_stimulus] on the job's seed, sampled as the job
    samples) over a wrapped engine: per-layer seconds and the counts,
    which must equal the job's. *)
let replicate (job : Fleet.job) =
  let step_ns = ref 0 and poke_ns = ref 0 in
  let t0 = Bench.now () in
  let b = Sic_sim.Compiled.create job.Fleet.circuit in
  let t_built = Bench.now () in
  let b =
    {
      b with
      Backend.step =
        (fun n ->
          let s = Obs.now_ns () in
          b.Backend.step n;
          step_ns := !step_ns + (Obs.now_ns () - s));
      poke =
        (fun name v ->
          let s = Obs.now_ns () in
          b.Backend.poke name v;
          poke_ns := !poke_ns + (Obs.now_ns () - s));
    }
  in
  let tlb = Sic_coverage.Timeline.builder () in
  let b =
    Backend.with_sampler ~every:job.Fleet.sample_every
      (fun ~cycles ~covered -> Sic_coverage.Timeline.record tlb ~at:cycles ~covered)
      b
  in
  Backend.reset_sequence b;
  let rng = Sic_fuzz.Rng.create job.Fleet.seed in
  Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 rng) ~cycles:job.Fleet.budget b;
  let t_ran = Bench.now () in
  let counts = b.Backend.counts () in
  let t_end = Bench.now () in
  let step = float_of_int !step_ns *. 1e-9 and poke = float_of_int !poke_ns *. 1e-9 in
  ( [
      ("sim.build", t_built -. t0);
      ("sim.poke", poke);
      ("sim.step", step);
      ("sim.stimulus", t_ran -. t_built -. step -. poke);
      ("cover.harvest", t_end -. t_ran);
    ],
    counts )

type replay = {
  span_s : float;  (** the worker's job span *)
  parts : (string * float) list;  (** layer seconds inside the job *)
  run_job_s : float;  (** in-process [Fleet.run_job] *)
  codec_s : float;
  encode_s : float;
  decode_s : float;
  faithful : bool;  (** both re-executions reproduce the worker's counts *)
}

let replay_job (js : Bench.job_span) : replay =
  let res, run_job_s = Bench.time (fun () -> Fleet.run_job js.Bench.job) in
  let parts, counts = replicate js.Bench.job in
  let payload, enc = Bench.time (fun () -> Fleet.encode_ok res) in
  let _, dec = Bench.time (fun () -> Fleet.decode payload) in
  let text, encode_s = Bench.time (fun () -> Counts.to_string res.Fleet.counts) in
  let _, decode_s = Bench.time (fun () -> Counts.of_string text) in
  let faithful =
    match js.Bench.outcome with
    | Ok worker -> Counts.equal worker.Fleet.counts res.Fleet.counts && Counts.equal counts res.Fleet.counts
    | Error _ -> false
  in
  {
    span_s = js.Bench.j1 -. js.Bench.j0;
    parts;
    run_job_s;
    codec_s = enc +. dec;
    encode_s;
    decode_s;
    faithful;
  }

type traced_round = { replays : replay list; add_s : float list; load_s : float }

(* spans and in-process re-executions of one traced round *)
let trace_round (r : round) : traced_round =
  let root = Bench.last_round () in
  let replays =
    List.map
      (fun js ->
        let span = Trace.record ~parent:root ~t0:js.Bench.j0 ~t1:js.Bench.j1 "fleet.job" in
        let rp = replay_job js in
        Bench.attribute span js.Bench.j0 (rp.parts @ [ ("fleet.codec", rp.codec_s) ]);
        rp)
      r.jobs
  in
  (* the barrier commit: one Db.add per job after the last job ended,
     re-measured on a shadow database *)
  let shadow = Db.init (r.dir ^ ".shadow") in
  let add_s =
    List.map
      (fun js ->
        match js.Bench.outcome with
        | Ok res ->
            snd
              (Bench.time (fun () ->
                   Db.add shadow ~design:js.Bench.job.Fleet.design ~circuit_hash:js.Bench.job.Fleet.circuit_hash
                     ~backend:"compiled" ~workload:"random" ~seed:js.Bench.job.Fleet.seed
                     ~cycles:js.Bench.job.Fleet.budget ?timeline:res.Fleet.timeline (Ok res.Fleet.counts)))
        | Error _ -> 0.)
      r.jobs
  in
  let last_end = List.fold_left (fun acc js -> Float.max acc js.Bench.j1) root.Trace.t0 r.jobs in
  Bench.attribute root last_end (List.map (fun dt -> ("db.add", dt)) add_s);
  let _, load_s = Bench.time (fun () -> Db.load r.dir) in
  { replays; add_s; load_s }

let layer_of = function
  | "round" -> "fleet.campaign"
  | "fleet.job" -> "fleet.overhead"
  | name -> name

let gates (rounds : round list) (last : round) (last_jobs : Bench.job_span list) =
  let first = List.hd rounds in
  let db = Db.load last.dir in
  let loaded = List.map (Db.load_counts db) (Db.ok_runs db) in
  let agg = Db.aggregate db and union = Counts.union_max loaded in
  let js = List.hd last_jobs in
  let rerun = Fleet.run_job js.Bench.job in
  let recorded = Db.load_counts db (List.hd (Db.ok_runs db)) in
  let prefix backend =
    (Fleet.run_job { js.Bench.job with Fleet.backend; budget = interp_cycles }).Fleet.counts
  in
  [
    Bench.gate "campaign: no failed jobs, same coverage every round"
      (List.for_all
         (fun r ->
           r.summary.Fleet.failed = 0
           && r.summary.Fleet.points_covered = first.summary.Fleet.points_covered)
         rounds)
      (Printf.sprintf "%d rounds" (List.length rounds));
    Bench.gate "campaign: cached aggregate = sum of the loaded runs, covering what their union_max covers"
      (Counts.equal agg (Counts.merge loaded)
      && Counts.covered agg = Counts.covered union
      && Counts.equal (Db.union_counts db) union)
      (Printf.sprintf "%d runs, %d points covered" (List.length loaded) (Counts.covered_points union));
    Bench.gate "campaign: first job re-run in-process = the worker's recorded counts"
      (Counts.equal rerun.Fleet.counts recorded)
      (Printf.sprintf "%d cycles" js.Bench.job.Fleet.budget);
    Bench.gate "campaign: the interpreter agrees with the compiled engine on that job"
      (Counts.equal (prefix Fleet.Interp) (prefix Fleet.Compiled))
      (Printf.sprintf "first %d cycles" interp_cycles);
  ]

let run ~seed ~seconds ~trace ~work : Bench.result =
  let traced_rounds = ref [] and last_jobs = ref [] in
  let setup_s, rs =
    Bench.rounds ~seconds ~setups_per_round ~setup:(setup ~work) (fun (low, _) i ->
        let r = run_round low ~seed ~work ~trace i in
        if r.traced then traced_rounds := trace_round r :: !traced_rounds;
        last_jobs := r.jobs;
        { r with jobs = [] })
  in
  let last = List.nth rs (List.length rs - 1) in
  let gates = gates rs last !last_jobs in
  let plain = List.filter (fun r -> not r.traced) rs in
  let quiet = Stats.quiet ~seconds:(fun r -> r.wall) ~ops:(fun r -> List.length r.job_s) plain in
  let traced = List.filter (fun r -> r.traced) rs in
  let rate =
    Array.of_list (List.map (fun r -> float_of_int r.summary.Fleet.sim_cycles /. r.wall) quiet)
  in
  let job_s rounds = Array.of_list (List.concat_map (fun r -> r.job_s) rounds) in
  let lat = job_s quiet in
  let attempted = List.fold_left (fun acc r -> acc + r.summary.Fleet.total_jobs) 0 rs in
  let failed = List.fold_left (fun acc r -> acc + r.summary.Fleet.failed) 0 rs in
  let covered = float_of_int last.summary.Fleet.points_covered in
  let shares = Trace.layer_totals ~root:"round" ~layer_of (Trace.spans ()) in
  let trs = !traced_rounds in
  let replays = List.concat_map (fun t -> t.replays) trs in
  let layers =
    match (traced, replays) with
    | [], _ | _, [] -> []
    | t :: _, _ ->
        let part name = Array.of_list (List.map (fun rp -> List.assoc name rp.parts) replays) in
        let sum a = Array.fold_left ( +. ) 0. a in
        let cycles = List.length replays * cycles_per_job in
        let spans = job_s traced in
        let overhead = Array.of_list (List.map (fun rp -> rp.span_s -. rp.run_job_s) replays) in
        let add = Array.of_list (List.concat_map (fun t -> t.add_s) trs) in
        [
          ("sim.builds", float_of_int (List.length t.job_s));
          ("sim.build_ms", Bench.median_ms (part "sim.build"));
          ("sim.cycles", float_of_int t.summary.Fleet.sim_cycles);
          ("sim.step_ns_per_cycle", sum (part "sim.step") *. 1e9 /. float_of_int cycles);
          ("cover.harvest_us", Stats.median (part "cover.harvest") *. 1e6);
          ("fleet.job_ms", Bench.median_ms spans);
          ("fleet.overhead_ms", Bench.median_ms overhead);
          ("fleet.codec_us", Stats.median (Array.of_list (List.map (fun rp -> rp.codec_s) replays)) *. 1e6);
          ("counts.encode_us", Stats.median (Array.of_list (List.map (fun rp -> rp.encode_s) replays)) *. 1e6);
          ("counts.decode_us", Stats.median (Array.of_list (List.map (fun rp -> rp.decode_s) replays)) *. 1e6);
          ("db.add_p50_ms", Bench.pct_ms add 50.);
          ("db.add_p90_ms", Bench.pct_ms add 90.);
          ("db.load_ms", Bench.median_ms (Array.of_list (List.map (fun t -> t.load_s) trs)));
          ( "bench.trace_overhead",
            Bench.trace_overhead
              ~traced:(List.map (fun r -> r.wall) traced)
              ~untraced:(List.map (fun r -> r.wall) plain) );
        ]
  in
  let faithful = List.for_all (fun rp -> rp.faithful) replays in
  let gates =
    gates
    @
    if replays = [] then []
    else
      [
        Bench.gate "campaign: in-process re-executions reproduce every worker's counts" faithful
          (Printf.sprintf "%d jobs" (List.length replays));
      ]
  in
  {
    Bench.attempted;
    failed;
    e2e =
      (if trace then []
       else
         [
           ("setup_s", Stats.quiet_median setup_s);
           ("throughput_per_s", Stats.median rate);
           ("op_p50_ms", Bench.op_p50_ms lat);
           ("points_covered", covered);
         ]);
    report =
      [
        Bench.row ~samples:(Array.length setup_s) "setup_s" "s" (Stats.quiet_median setup_s);
        Bench.row ~samples:(Array.length rate) "throughput_per_s" "1/s" (Stats.median rate);
      ]
      @ Bench.pct_row "op_p50_ms" lat 50.
      @ [ Bench.row "points_covered" "count" covered ];
    layers;
    shares;
    gates;
  }
