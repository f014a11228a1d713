(** Mutational coverage-directed fuzzing (§5.4): an AFL-style loop over an
    rfuzz-style harness. Inputs are flat byte strings consumed a fixed
    number of bytes per clock cycle; feedback is any coverage metric's
    counts map, bucketed AFL-fashion — switching metrics is switching an
    instrumentation pass (or just a name filter). Fully deterministic
    from the seed. *)

open Sic_ir
module Counts = Sic_coverage.Counts

type harness = private {
  circuit : Circuit.t;  (** instrumented, lowered *)
  create : Circuit.t -> Sic_sim.Backend.t;
  inputs : (string * int) list;  (** data inputs: name, width *)
  bytes_per_cycle : int;
  reset_cycles : int;
  unpack : (string * int * int) array;
      (** data inputs in port order: name, bit offset within a cycle's
          bytes, width *)
  mutable engine : Sic_sim.Backend.t option;
      (** the harness's one engine: [None] until the first {!execute}
          builds it with [create] *)
}
(** A harness owns one engine, so it must not be shared between
    concurrently running threads or domains. *)

val make_harness :
  ?create:(Circuit.t -> Sic_sim.Backend.t) ->
  ?reset_cycles:int ->
  Circuit.t ->
  harness
(** Builds no engine: that is deferred to the first {!execute}. *)

val execute : harness -> bytes -> Counts.t
(** Run one input from reset; returns its coverage counts. The harness's
    engine is built by the first call and {!Sic_sim.Backend.t.restore}d to
    power-on state by every later one, then driven through the reset
    sequence — a restored engine is indistinguishable from a fresh one,
    so the counts are those of a newly built engine. *)

val input_of_trace : harness -> Sic_sim.Replay.trace -> bytes
(** Re-encode a replay trace (e.g. a BMC witness) as the fuzzer input
    whose per-cycle unpacking pokes the same data-input values. Channels
    are matched by name (a witness's channels are alphabetical, not port
    order); the first [reset_cycles] frames are dropped because
    {!execute} replays the reset sequence itself. *)

val save_corpus : string -> bytes list -> unit
(** Persist a corpus as one [seedNNNN.bin] per input, creating the
    directory if needed; the directory ends up mirroring exactly the
    given list. *)

val load_corpus : string -> bytes list
(** Every [*.bin] of the directory in name order; [[]] if it doesn't
    exist. *)

val bucket : int -> int
(** AFL count bucketing (1, 2, 3, 4-7, 8-15, ...). *)

val signature : Counts.t -> (string * int) list
(** The (cover, bucket) pairs of a run; a run is interesting when it
    contributes an unseen pair. *)

val mutate : Rng.t -> bytes array -> bytes -> bytes
(** One havoc round: bit flips, byte ops, arithmetic, interesting
    values, block duplication, truncation, splicing. Never returns an
    empty testcase. *)

val trim : harness -> bytes -> bytes
(** Shrink a testcase while preserving its coverage signature
    (afl-tmin-style corpus minimization): shortest working prefix by
    binary search, then single-cycle deletions. *)

type progress = {
  execs : int;
  corpus_size : int;
  seen_pairs : int;
  cumulative : Counts.t;  (** merged counts over all executions *)
}

type result = {
  final : progress;
  history : (int * Counts.t) list;  (** snapshots for coverage-over-time *)
  timeline : Sic_coverage.Timeline.t;
      (** the same snapshots as a convergence curve (execs -> points hit),
          ready to persist in the coverage database *)
  corpus : bytes list;  (** the final corpus, ready for {!save_corpus} *)
}

val run :
  ?seed:int ->
  ?execs:int ->
  ?snapshot_every:int ->
  ?max_cycles:int ->
  ?seed_cycles:int ->
  ?corpus:bytes list ->
  ?feedback:(string -> bool) ->
  ?on_snapshot:(execs:int -> covered:int -> unit) ->
  harness ->
  result
(** [corpus] supplies extra initial seeds beyond the all-zeroes default —
    witness-derived inputs or a {!load_corpus} result; each is executed
    up front so its coverage counts even if mutation never revisits it.
    [feedback] filters which cover names feed the signature; pass
    [(fun _ -> false)] for feedback-free random fuzzing. [on_snapshot]
    fires at every [snapshot_every] boundary with the cumulative points
    covered — the fleet's heartbeat hook. *)
