(** Parallel multi-backend campaign orchestrator.

    Runs a deterministic job list (designs x backends x seeds, grouped
    into waves) on a pool of [-j N] forked worker processes that each run
    job after job, collects each job's counts map over a pipe, and folds
    everything into a
    {!Sic_db.Db} coverage database. Failure-isolated: a crashed,
    timed-out or raising worker is retried and, if it keeps failing,
    recorded as a failed run — the campaign always completes. Between
    waves the §5.3 removal pass strips points the database already
    covers, so each successive (more expensive) wave instruments less.

    The database contents are byte-for-byte independent of [-j] {e and}
    of lane packing: run seeds derive from (master seed, global run
    index) via {!Sic_fuzz.Rng.split}, results are committed in (job,
    lane) order at each wave barrier, and the aggregate merge is
    commutative and associative. The [Lanes] backend packs up to 62 runs
    into one bit-parallel job ({!Sic_sim.Lanes}), multiplying [-j]
    process parallelism by per-process lane parallelism without moving a
    byte of the database. *)

module Counts = Sic_coverage.Counts

(** {1 Jobs} *)

type backend = Interp | Compiled | Essent | Fpga | Fuzz | Bmc | Bmc_witness | Lanes
(** [Fpga] is the modelled FireSim path: scan-chain insertion plus the
    host driver ({!Sic_firesim.Driver.run_random}); [Bmc] reports each
    targeted cover at 1 (reachable, witness found) or 0 (unreachable
    within the bound); [Bmc_witness] is the closure loop's job kind —
    like [Bmc] but each witness trace is replayed through the compiled
    backend in-worker to confirm it fires and harvest its full coverage,
    and the confirmed traces ship back in {!job_result.witnesses};
    [Lanes] is the bit-parallel engine ({!Sic_sim.Lanes}) advancing up
    to 62 independent stimulus seeds per tape pass — one job, one run
    record {e per lane}. *)

val backend_name : backend -> string

val all_backends : backend list
(** Every backend, in the order [sic campaign] lists their names. *)

val backend_of_string : string -> backend option
(** The backend whose {!backend_name} is the string. *)

type job = {
  index : int;  (** global position in the campaign's job list *)
  design : string;
  circuit : Sic_ir.Circuit.t;  (** instrumented, lowered, removal applied *)
  circuit_hash : string;
  backend : backend;
  seed : int;
  lane_seeds : int array;
      (** a [Lanes] job's additional packed runs (lanes 1..), each a full
          run with its own stimulus stream and database record; [[||]]
          for every other backend *)
  budget : int;  (** cycles (sims/FPGA), execs (fuzz) or bound (BMC) *)
  wave : int;
  scan_width : int;
  sample_every : int;
      (** coverage-timeline sampling period in budget units; 0 disables
          sampling entirely (no wrapper on the hot path) *)
  profile : bool;
      (** ship an engine hotspot profile with the result; honoured by the
          compiled-engine simulation backends ([Compiled], [Essent]) and
          ignored by the rest *)
  covers : string list;
      (** restrict the BMC backends to these cover points ([[]] = all);
          the closure loop dispatches one single-point job per uncovered
          point. Ignored elsewhere *)
  corpus : bytes list;
      (** extra initial fuzz seeds (e.g. witness-derived inputs); the
          forked worker inherits them with the job list, so nothing
          crosses the pipe. Ignored outside [Fuzz] *)
}

type job_result = {
  counts : Counts.t;  (** lane 0's counts; the whole result outside [Lanes] *)
  lane_extra : Counts.t list;
      (** per-lane counts beyond lane 0, in lane order — each
          {!Counts.equal} to what a solo run over the same seed reports;
          [[]] outside [Lanes] *)
  sim_cycles : int;  (** total simulated budget units: [budget x lanes] *)
  wall_us : float;
  timeline : Sic_coverage.Timeline.t option;
      (** the run's convergence curve, when [sample_every > 0] (BMC jobs
          never record one) *)
  prof : Sic_sim.Profile.design_profile option;
      (** counts-only engine profile, when [job.profile] asked for one —
          counts-only so the bytes merge deterministically across workers
          (sampled timings never would) *)
  witnesses : (string * Sic_sim.Replay.trace) list;
      (** a [Bmc_witness] job's replay-confirmed traces, one per reachable
          targeted cover; [[]] for every other backend *)
}

val run_job : ?progress:(cycles:int -> covered:int -> unit) -> job -> job_result
(** Execute one job in the current process; deterministic in [job.seed].
    [progress] fires at each [sample_every] boundary with cumulative work
    done and points covered — the heartbeat hook, free to be wall-clock
    throttled since it never influences the result. *)

(** {1 Worker protocol}

    Every message a worker writes to the orchestrator is one
    [Marshal.to_string] of a {!message}: heartbeats while a job runs,
    then its result (see DESIGN.md, "Worker protocol"). Marshal is
    type-safe here only because parent and worker are the same forked
    binary. A worker serves many jobs over one pipe, so the parent frames
    each message by Marshal's own header ([Marshal.total_size]), not by
    EOF, and unmarshals it only once it has wholly arrived. *)

type decoded = {
  outcome : (job_result, string) result;
      (** the job's verdict: [Error] is a {e worker-reported} failure *)
  telemetry : Sic_obs.Obs.export option;
      (** the worker's telemetry for this job; [None] when telemetry is off *)
}

type message =
  | Heartbeat of { cycles : int; covered : int }
      (** work done and points covered so far, at most every 50 ms *)
  | Result of decoded  (** the job's last message *)

val encode_ok : job_result -> string
(** The result message a worker writes for a successful job, with the
    worker's telemetry when it is on. *)

val decode : string -> (decoded, string) result
(** Read one whole result message. A string that is not exactly one
    Marshal value (a prefix, trailing bytes, foreign bytes) or that holds
    a heartbeat decodes to [Error]; [decode] never raises. *)

(** {1 Job events} *)

(** What the orchestrator reports as a campaign unfolds — consumed by
    {!Progress} for [sic campaign --progress]. [Job_started] fires when
    the job is dispatched to a worker. *)
type job_event =
  | Job_started of { job : job; attempt : int }
  | Job_heartbeat of { job : job; hb_cycles : int; hb_covered : int }
  | Job_retried of { job : job; attempt : int; why : string }
  | Job_finished of { job : job; result : (job_result, string) result }

val run_jobs :
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?inject_crash:(job -> bool) ->
  ?on_event:(job_event -> unit) ->
  job list ->
  (job * (job_result, string) result) list
(** Run the jobs on a pool of [min jobs n] forked workers that lives
    for this call. Each worker inherits the job list through the fork;
    the parent dispatches one job at a time to an idle worker (a short
    line naming the job's position), and the worker runs it and writes
    its heartbeats and result as {!message}s. Retry crashes/timeouts/raises up to [retries] extra
    attempts; [timeout_s] counts from dispatch; a worker that dies fails
    only its own job and is replaced by a fresh one while jobs wait.
    Never raises on worker death. Results are in input order, each equal
    to what {!run_job} returns for the same job, whichever jobs its
    worker ran before. [inject_crash] makes matching jobs' workers
    SIGKILL themselves (the failure-isolation test hook); [on_event] observes the live schedule —
    [Job_started] means "dispatched to a worker". Every worker is reaped
    before this returns, and before it re-raises an exception from
    [on_event]. With telemetry on, counts forks in
    [fleet.workers_spawned]. *)

val commit : Sic_db.Db.t -> job * (job_result, string) result -> unit
(** Record one job's outcome in the database, one run per lane in lane
    order (a single run outside [Lanes]): [Ok] lands each lane's counts
    with the job's wall time split evenly across the lanes, lane 0
    keeping the timeline; [Error] lands one failed run per lane. *)

(** {1 Campaigns} *)

type spec = {
  designs : (string * Sic_ir.Circuit.t) list;
      (** instrumented and lowered; the orchestrator only applies removal *)
  waves : backend list list;  (** one entry per wave, cheap to expensive *)
  seeds : int;  (** runs per (design, backend) within a wave *)
  lanes : int;
      (** runs packed bit-parallel into each [Lanes] job, clamped to
          [1, 62]; pure scheduling — database bytes are identical at any
          value. Other backends ignore it *)
  cycles : int;
  execs : int;
  bound : int;
  scan_width : int;
  master_seed : int;
  jobs : int;
  timeout_s : float option;
  retries : int;
  threshold : int;  (** §5.3 removal threshold applied between waves *)
  timeline_every : int;
      (** convergence-timeline sampling period (budget units); 0 = off *)
  profile : bool;
      (** have compiled-engine workers ship per-instruction hit profiles;
          merged (deterministically, in job order per instrumented
          circuit) into {!summary.profile} *)
}

val default_spec : spec
(** One [Compiled] wave, 1 seed, 1000 cycles, [-j 1], threshold 1,
    timelines sampled every 100 budget units, profiling off. *)

val spec_total_jobs : spec -> int
(** How many jobs the spec will enumerate, before running any — a [Lanes]
    wave entry contributes ceil(seeds/lanes) jobs. *)

type summary = {
  total_jobs : int;
  ok : int;
  failed : int;
  skipped : int;
      (** jobs not run because the §5.3 removal pass left their design
          with no cover points; [ok + failed + skipped = total_jobs] *)
  waves_run : int;
  removed_points : int;
  points_total : int;
  points_covered : int;
  sim_cycles : int;
      (** total simulated budget units over successful jobs (a lane job
          counts [budget x lanes]) — the waves x jobs x lanes aggregate *)
  elapsed_s : float;  (** campaign wall time *)
  profile : Sic_sim.Profile.t;
      (** the campaign's merged engine profile ([[]] unless
          [spec.profile]); one section per distinct instrumented circuit,
          byte-for-byte independent of [-j] *)
}

(** {1 Live progress}

    A {!job_event} consumer rendering the single-line campaign status
    ([sic campaign --progress]): done/failed/running jobs, covered points
    (union-max estimate), throughput and ETA. *)
module Progress : sig
  type t

  val create : ?out:out_channel -> ?label:string -> total:int -> unit -> t
  (** [total] is the expected job count ({!spec_total_jobs}); output goes
      to [out] (default [stderr]) as a [\r]-refreshed line. [label]
      prefixes the line (default ["campaign"]); [total = 0] renders a
      plain done-count with no ETA — an open-ended stream. *)

  val on_event : t -> job_event -> unit

  val update :
    t ->
    done_:int ->
    failed:int ->
    running:int ->
    covered:int ->
    points:int ->
    units:int ->
    unit
  (** External-feed path ([sic watch]): replace the locally-accumulated
      counters with absolute values learned from a server and re-render.
      [running] shows as the running-worker count, [units] drives the
      throughput figure. *)

  val finish : ?skipped:int -> t -> unit
  (** Force a final render and terminate the line. [skipped] jobs (those
      {!run_campaign} never ran, [summary.skipped]) count as done, so the
      last line reads "N/N done (M skipped)". *)
end

val run_campaign :
  ?inject_crash:(int -> bool) ->
  ?on_event:(job_event -> unit) ->
  db:Sic_db.Db.t ->
  spec ->
  summary
(** Enumerate and run every wave into [db]. [inject_crash] receives the
    global job index; [on_event] feeds a progress display. Per-run
    timelines are persisted alongside the counts when
    [spec.timeline_every > 0]. *)

val render_summary : summary -> string
