(** Automatic coverage closure: the formal ⇄ fuzz ⇄ rank loop.

    The paper's §5.3 machinery says {e what} is still uncovered, BMC can
    synthesize a witness reaching a specific cover point, and the fuzzer
    accepts corpus seeds — this module turns that crank automatically
    until a fixpoint. One {e wave}:

    + query the database aggregate for uncovered points (the rank view,
      minus already-excluded points);
    + dispatch one single-point BMC query per uncovered point in parallel
      through the fleet ([Bmc_witness] jobs: bounded depth, per-job
      timeout/retry, crash isolation). Each SAT witness is replayed
      through the compiled backend {e in the worker} — confirming the
      point actually fires and harvesting the trace's full coverage,
      which lands in the database as an ordinary run;
    + mark points proven UNSAT within the bound as excluded in the
      database's versioned exclusion artifact (honoured by
      report/rank/HTML from then on);
    + convert the confirmed witness traces to fuzzer inputs and run one
      corpus-seeded fuzz wave, so mutation explores {e around} the
      hard-to-reach states the witnesses park the design in.

    Waves repeat until no point changed state (covered, excluded, or
    newly fuzzed) — the fixpoint. On a cooperative design every point
    ends either covered or formally excluded; BMC failures (timeouts,
    crashed workers) leave their points open for the next wave, so the
    loop degrades gracefully instead of wedging.

    Determinism: jobs are enumerated in sorted-point order, seeds derive
    from (master seed, wave, index), results commit to the database in
    job order, and every run is recorded with [wall_us = 0] — so the
    final database bytes and the exclusion artifact are independent of
    [-j]. *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db
module Fleet = Sic_fleet.Fleet
module Fuzzer = Sic_fuzz.Fuzzer
module Rng = Sic_fuzz.Rng
module Obs = Sic_obs.Obs
open Sic_sim

type config = {
  design : string;
  circuit : Sic_ir.Circuit.t;  (** instrumented, lowered *)
  bound : int;  (** BMC unrolling depth; UNSAT here means excluded *)
  execs : int;  (** budget of each witness-seeded fuzz wave; 0 disables *)
  jobs : int;  (** fleet [-j] *)
  timeout_s : float option;
  retries : int;
  max_waves : int;  (** safety valve; the loop normally stops at fixpoint *)
  master_seed : int;
  threshold : int;  (** a point with aggregate count below this is open *)
}

let default_config ~design ~circuit =
  {
    design;
    circuit;
    bound = 10;
    execs = 300;
    jobs = 1;
    timeout_s = None;
    retries = 1;
    max_waves = 8;
    master_seed = 0;
    threshold = 1;
  }

type wave_stats = {
  wave : int;
  uncovered_before : int;  (** open points entering the wave *)
  witnessed : int;  (** points confirmed reachable, harvested into the DB *)
  excluded : int;  (** points proven UNSAT within the bound this wave *)
  bmc_failed : int;  (** BMC jobs that failed (still open next wave) *)
  fuzz_new : int;  (** points first covered by the witness-seeded fuzz wave *)
  open_after : int;
}

type outcome = {
  waves : wave_stats list;  (** in wave order *)
  points_total : int;  (** every cover point of the circuit *)
  points_covered : int;
  points_excluded : int;
  points_open : int;  (** neither covered nor excluded when the loop stopped *)
  fixpoint : bool;
      (** the loop stopped because nothing changed state (or nothing was
          open), not because [max_waves] ran out *)
  corpus : bytes list;  (** witness-derived fuzz seeds, accumulation order *)
  elapsed_s : float;
}

(* run seeds: deterministic in (master seed, wave, slot), like the fleet's
   campaign seeds — never in scheduling *)
let seed_of ~master ~wave ~slot =
  let rng = Rng.split (Rng.create master) ((wave * 1_000_003) + slot) in
  Int64.to_int (Int64.logand (Rng.next64 rng) 0x3FFFFFFFL)

(** Every cover point of the circuit, from a fresh compiled backend's
    all-points-at-zero counts enumeration. Sorted. *)
let all_points (circuit : Sic_ir.Circuit.t) : string list =
  let b = Compiled.create circuit in
  Counts.names (b.Backend.counts ())

let mk_job ~config ~index ~wave ~backend ~seed ~budget ~covers ~corpus =
  {
    Fleet.index;
    design = config.design;
    circuit = config.circuit;
    circuit_hash = "-";
    backend;
    seed;
    lane_seeds = [||];
    budget;
    wave;
    scan_width = 16;
    sample_every = 0;
    profile = false;
    covers;
    corpus;
  }

(** Run the closure loop into [db]. [log] receives one human-readable
    line per wave (the live timeline); [on_event] observes the underlying
    fleet schedule (heartbeats, retries) for richer displays. *)
let close ?(log = fun (_ : string) -> ()) ?on_event ~(db : Db.t) (config : config) :
    outcome =
  let t0 = Unix.gettimeofday () in
  let points = all_points config.circuit in
  let harness = Fuzzer.make_harness config.circuit in
  let corpus = ref [] in  (* witness seeds, oldest first *)
  let waves = ref [] in
  let job_counter = ref 0 in
  let fixpoint = ref false in
  let next_index () =
    let i = !job_counter in
    incr job_counter;
    i
  in
  let open_points () =
    let agg = if Db.runs db = [] then Counts.create () else Db.aggregate db in
    let excluded = Db.excluded_names db in
    List.filter
      (fun p -> Counts.get agg p < config.threshold && not (List.mem p excluded))
      points
  in
  let run_fleet jobs =
    Fleet.run_jobs ~jobs:config.jobs ?timeout_s:config.timeout_s ~retries:config.retries
      ?on_event jobs
  in
  (* every run lands with [wall_us = 0], so the manifest bytes do not
     depend on -j *)
  let commit (job, outcome) =
    Fleet.commit db (job, Result.map (fun r -> { r with Fleet.wall_us = 0. }) outcome)
  in
  let wave = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let uncovered = open_points () in
    if uncovered = [] then begin
      fixpoint := true;
      continue_ := false
    end
    else if !wave >= config.max_waves then continue_ := false
    else begin
      Obs.span "close.wave" ~args:[ ("wave", Obs.Int !wave) ] @@ fun () ->
      (* --- formal phase: one single-point BMC job per open point --- *)
      let bmc_jobs =
        List.mapi
          (fun slot p ->
            mk_job ~config ~index:(next_index ()) ~wave:!wave ~backend:Fleet.Bmc_witness
              ~seed:(seed_of ~master:config.master_seed ~wave:!wave ~slot)
              ~budget:config.bound ~covers:[ p ] ~corpus:[])
          uncovered
      in
      let results = run_fleet bmc_jobs in
      let witnessed = ref 0 and bmc_failed = ref 0 in
      let pending_exclusions = ref [] in
      (* commit in job order: ids, manifest and artifact are -j independent *)
      List.iter2
        (fun point ((_, outcome) as result) ->
          match outcome with
          | Ok (r : Fleet.job_result) when r.Fleet.witnesses <> [] ->
              incr witnessed;
              commit result;
              List.iter
                (fun (_, trace) -> corpus := !corpus @ [ Fuzzer.input_of_trace harness trace ])
                r.Fleet.witnesses
          | Ok _ ->
              (* UNSAT within the bound: formally excluded *)
              pending_exclusions :=
                {
                  Db.ex_name = point;
                  ex_reason = Printf.sprintf "unreachable within bound %d" config.bound;
                  ex_design = config.design;
                  ex_wave = !wave;
                }
                :: !pending_exclusions
          | Error _ ->
              incr bmc_failed;
              commit result)
        uncovered results;
      let exclusions = List.rev !pending_exclusions in
      Db.add_exclusions db exclusions;
      (* --- fuzz phase: one wave seeded with every witness so far --- *)
      let before_fuzz = if Db.runs db = [] then Counts.create () else Db.aggregate db in
      let fuzz_new = ref 0 in
      if config.execs > 0 then begin
        let job =
          mk_job ~config ~index:(next_index ()) ~wave:!wave ~backend:Fleet.Fuzz
            ~seed:(seed_of ~master:config.master_seed ~wave:!wave ~slot:999_983)
            ~budget:config.execs ~covers:[] ~corpus:!corpus
        in
        List.iter
          (fun ((_, outcome) as result) ->
            commit result;
            match outcome with
            | Ok (r : Fleet.job_result) ->
                fuzz_new :=
                  List.length
                    (List.filter
                       (fun p ->
                         Counts.get before_fuzz p < config.threshold
                         && Counts.get r.Fleet.counts p >= config.threshold)
                       uncovered)
            | Error _ -> ())
          (run_fleet [ job ])
      end;
      let open_after = List.length (open_points ()) in
      let stats =
        {
          wave = !wave;
          uncovered_before = List.length uncovered;
          witnessed = !witnessed;
          excluded = List.length exclusions;
          bmc_failed = !bmc_failed;
          fuzz_new = !fuzz_new;
          open_after;
        }
      in
      waves := stats :: !waves;
      log
        (Printf.sprintf
           "wave %d: %d uncovered | bmc: %d witnessed, %d excluded, %d failed | fuzz: +%d \
            points | %d open"
           stats.wave stats.uncovered_before stats.witnessed stats.excluded stats.bmc_failed
           stats.fuzz_new stats.open_after);
      (* fixpoint: the wave moved nothing — rerunning it would only repeat
         the same verdicts *)
      if stats.witnessed = 0 && stats.excluded = 0 && stats.fuzz_new = 0 then begin
        fixpoint := true;
        continue_ := false
      end;
      incr wave
    end
  done;
  let agg = if Db.runs db = [] then Counts.create () else Db.aggregate db in
  let excluded = Db.excluded_names db in
  let covered =
    List.filter
      (fun p -> Counts.get agg p >= config.threshold && not (List.mem p excluded))
      points
  in
  {
    waves = List.rev !waves;
    points_total = List.length points;
    points_covered = List.length covered;
    points_excluded = List.length excluded;
    points_open = List.length points - List.length covered - List.length excluded;
    fixpoint = !fixpoint;
    corpus = !corpus;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

let render_outcome (o : outcome) : string =
  Printf.sprintf
    "closure: %s after %d wave%s in %.1fs\n\
     points : %d covered, %d excluded, %d open (of %d)\n\
     corpus : %d witness seed%s\n"
    (if o.points_open = 0 then "closed"
     else if o.fixpoint then "fixpoint with open points"
     else "wave budget exhausted")
    (List.length o.waves)
    (if List.length o.waves = 1 then "" else "s")
    o.elapsed_s o.points_covered o.points_excluded o.points_open o.points_total
    (List.length o.corpus)
    (if List.length o.corpus = 1 then "" else "s")
