(** Automatic coverage closure: iterate formal ⇄ fuzz ⇄ rank to a fixpoint.

    [sic close] drives this loop: per wave, every still-uncovered point of
    the design gets a single-point bounded model check through the fleet
    ([Bmc_witness] jobs, in parallel). SAT witnesses are replay-confirmed
    and harvested into the coverage database as ordinary runs and recycled
    as fuzzer corpus seeds for a witness-seeded fuzz wave; UNSAT-within-
    bound points are recorded in the database's versioned exclusion
    artifact and drop out of every subsequent coverage view. The loop
    stops at the fixpoint — a wave in which no point changed state — or
    when nothing is open.

    Database bytes and the exclusion artifact are independent of the
    parallelism level: deterministic seeds, job-order commits, zero'd wall
    times. *)

type config = {
  design : string;  (** database design label *)
  circuit : Sic_ir.Circuit.t;  (** instrumented, lowered *)
  bound : int;  (** BMC unrolling depth; UNSAT within it means excluded *)
  execs : int;  (** budget of each witness-seeded fuzz wave; 0 disables *)
  jobs : int;  (** parallel fleet workers *)
  timeout_s : float option;  (** per-job timeout *)
  retries : int;  (** per-job retry budget *)
  max_waves : int;  (** safety valve; the loop normally stops at fixpoint *)
  master_seed : int;
  threshold : int;  (** aggregate count below this = point still open *)
}

val default_config : design:string -> circuit:Sic_ir.Circuit.t -> config
(** bound 10, execs 300, [-j 1], 1 retry, 8 waves max, threshold 1. *)

type wave_stats = {
  wave : int;
  uncovered_before : int;  (** open points entering the wave *)
  witnessed : int;  (** points confirmed reachable and harvested *)
  excluded : int;  (** points proven UNSAT within the bound this wave *)
  bmc_failed : int;  (** BMC jobs that failed (points stay open) *)
  fuzz_new : int;  (** open points first covered by the fuzz phase *)
  open_after : int;
}

type outcome = {
  waves : wave_stats list;  (** in wave order *)
  points_total : int;
  points_covered : int;
  points_excluded : int;
  points_open : int;  (** neither covered nor excluded at stop *)
  fixpoint : bool;
      (** stopped because a wave changed nothing (or nothing was open),
          not because [max_waves] ran out *)
  corpus : bytes list;
      (** every witness-derived fuzz seed, ready for
          {!Sic_fuzz.Fuzzer.save_corpus} *)
  elapsed_s : float;
}

val close :
  ?log:(string -> unit) ->
  ?on_event:(Sic_fleet.Fleet.job_event -> unit) ->
  db:Sic_db.Db.t ->
  config ->
  outcome
(** Run the closure loop into [db]. [log] receives one line per completed
    wave (the live timeline); [on_event] observes the underlying fleet
    schedule. *)

val render_outcome : outcome -> string
