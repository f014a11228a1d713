(** Persistent coverage database: a directory of runs.

    Layout: [manifest.ndjson] (a versioned meta record, then one JSON
    record per run, append-only), one [<id>.cnt] counts file per
    successful run ({!Sic_coverage.Counts} v1 format), and a cached
    [aggregate.cnt] maintained incrementally on {!add}. All text, all
    diffable; deleting [aggregate.cnt] just forces a recompute.

    This is the substrate of the §5.3 flow at campaign scale: every
    backend's runs land here in the same format, merging is the trivial
    pointwise sum, and {!removal_counts}/{!rank} answer "what is still
    worth instrumenting" and "which runs are worth keeping". *)

module Counts = Sic_coverage.Counts

exception Db_error of string

type status = Run_ok | Run_failed of string

type run = {
  id : string;  (** ["r0001"], assigned by {!add} in arrival order *)
  design : string;
  circuit_hash : string;  (** digest of the instrumented circuit, or ["-"] *)
  backend : string;  (** [interp] / [compiled] / [essent] / [fpga] / [fuzz] / [bmc] / ... *)
  workload : string;  (** [random] / [fuzz] / [bmc] / free-form *)
  seed : int;
  cycles : int;  (** simulated cycles, fuzz execs or BMC bound, per workload *)
  wave : int;  (** campaign wave this run belonged to; 0 outside campaigns *)
  wall_us : float;
  status : status;
  points_total : int;
  points_covered : int;
}

type exclusion = {
  ex_name : string;  (** the cover point *)
  ex_reason : string;  (** e.g. ["unreachable within bound 10"] *)
  ex_design : string;
  ex_wave : int;  (** the closure wave that proved it; 0 outside closure *)
}
(** A point formally proven unreachable (the closure loop's
    UNSAT-within-bound verdict), persisted in the versioned
    [exclusions.ndjson] artifact — same shape as the manifest (meta
    header, then one record per point). A design property, not a run
    property: it survives re-running campaigns, and {!render_report} /
    {!rank} / the HTML report stop counting excluded points as coverage
    debt. *)

type t

(** Cross-process mutual exclusion over a database directory, so
    concurrent writers ([sic db add], overlapping campaigns, the coverage
    server) cannot interleave manifest appends or aggregate rewrites. The
    lock is an advisory [lock] file created with [O_CREAT | O_EXCL],
    holding the owner's pid; a lock whose owner is dead is stale and
    taken over. Reentrant within a process (so {!add}, which locks
    internally, composes with an outer [with_lock] around a load-add
    read-modify-write); {b not} thread-safe by itself — a threaded writer
    must additionally serialize its own threads. *)
module Lock : sig
  val with_lock : ?timeout_s:float -> string -> (unit -> 'a) -> 'a
  (** [with_lock dir f] runs [f] holding [dir]'s lock, releasing it even
      if [f] raises. Raises {!Db_error} after [timeout_s] (default 10s)
      of another live process holding it. *)
end

val init : string -> t
(** Create the directory (if needed) and an empty manifest. Raises
    {!Db_error} if one already exists there. *)

val load : string -> t
(** Open an existing database. Raises {!Db_error} when there is no
    manifest, and {!Sic_obs.Artifact.Bad_format} naming the file and line
    for a malformed manifest or exclusions file, or one written by an
    incompatible format version. *)

val open_or_init : string -> t

val dir : t -> string
val runs : t -> run list
(** Manifest (arrival) order. *)

val find : t -> string -> run option
val ok_runs : t -> run list

val add :
  t ->
  design:string ->
  ?circuit_hash:string ->
  backend:string ->
  workload:string ->
  seed:int ->
  cycles:int ->
  ?wave:int ->
  ?wall_us:float ->
  ?timeline:Sic_coverage.Timeline.t ->
  (Counts.t, string) result ->
  run
(** Record one run: write its counts file (on [Ok]), append the manifest
    record, and fold the counts into the cached aggregate. [timeline]
    additionally persists the run's coverage-convergence curve as
    [<id>.tl] ({!Sic_coverage.Timeline} v1 format). [Error why] records a
    failed run — no counts, aggregate untouched — so a crashed worker
    leaves an audit trail instead of a hole. *)

val load_counts : t -> run -> Counts.t

val load_timeline : t -> run -> Sic_coverage.Timeline.t option
(** The run's persisted convergence timeline, if one was recorded. *)

val aggregate : t -> Counts.t
(** The merged counts of every successful run (cached; recomputed when the
    cache file is missing). *)

val union_counts : t -> Counts.t
(** {!Sic_coverage.Counts.union_max} over every successful run — the
    idempotent merge, safe under at-least-once delivery (a retried push
    reporting the same run twice). What the coverage server's [/report]
    serves. Computed fresh on every call. *)

val manifest_stamp : t -> int
(** The on-disk manifest's current byte length — a cheap, monotonically
    increasing database version that changes on every {!add} by any
    process (the manifest is append-only). The coverage server keys its
    ETags and response cache on it. *)

val recompute_aggregate : t -> Counts.t
(** Force a full re-merge and rewrite the cache. *)

val removal_counts : t -> Counts.t
(** The §5.3 export: feed this to {!Sic_coverage.Removal.remove_covered}
    (or [sic scan --db]) so the next, more expensive instrumentation
    carries only still-uncovered points. Currently the aggregate. *)

val diff : t -> before:string -> after:string -> Counts.diff
(** Compare two runs by id. *)

val rank : ?threshold:int -> t -> run list
(** Greedy set cover: an approximately minimal subset of runs whose merged
    coverage (at [threshold], default 1) equals the whole database's —
    test-suite minimization over the run store. Deterministic; runs are
    returned in pick order (largest marginal gain first). Excluded points
    are not part of the target. *)

val rank_json : ?threshold:int -> t -> Sic_obs.Json.t
(** The machine-readable rank view ([sic db rank --json]): threshold,
    non-excluded points total/covered, the uncovered and excluded name
    lists, and the {!rank} pick with per-run marginal [gain]. *)

(** {1 Exclusions} *)

val exclusions : t -> exclusion list
(** Artifact (arrival) order. *)

val excluded_names : t -> string list
(** Sorted, deduplicated. *)

val add_exclusions : t -> exclusion list -> unit
(** Append to [exclusions.ndjson] (creating it, header first, on first
    use) under the database lock. Idempotent per point name: already
    excluded names are skipped, so replayed closure waves never duplicate
    records. *)

val json_of_run : run -> Sic_obs.Json.t
(** The run's manifest record (the coverage server's [/runs] rows). *)

(** {1 Text renderers (the [sic db] subcommands)} *)

val render_run_line : run -> string
val render_list : t -> string
val render_report : t -> string

val render_timelines : t -> string
(** Coverage-convergence sparklines per run plus a per-backend
    earliest-saturation comparison ([sic db report --timeline]). *)

val render_rank : ?threshold:int -> t -> string
