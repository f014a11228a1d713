(** Compiled simulator — the Verilator analogue (§3.2), built around a
    word-level engine: the lowered circuit is compiled once into a
    topologically-sorted flat instruction tape over unboxed native-int
    slots (signals wider than 62 bits fall back to {!Sic_bv.Bv} slots).
    Higher start-up cost than the interpreter, much higher steady-state
    throughput; a simulation cycle allocates nothing when every signal
    fits a machine word. {!Interp} is the reference it is tested
    against. *)

type t
(** A built simulation (shared with {!Essent}). *)

type profile_mode =
  | Counts_only
      (** Exact per-instruction hit (value-change) counts, no timing. *)
  | Sampled of int
      (** Counts plus per-instruction self-time sampled every [n]th
          [run_tape] with a monotonic clock. *)

val build :
  ?builtin_line:bool ->
  ?activity:bool ->
  ?profile:profile_mode ->
  Sic_ir.Circuit.t ->
  t
(** [~builtin_line:true] reproduces a simulator with {e hard-coded} line
    coverage (Verilator's native mode, the Figure 8 comparator): the same
    instrumentation is performed internally by the simulator rather than
    by an IR pass, so its counters keep the usual [l_*] names. Requires a
    high-form circuit. [~activity:true] enables ESSENT-style conditional
    evaluation over per-instruction dirty flags. [?profile] builds the
    tape in profiling mode: each tape position carries provenance back to
    its originating IR statement and source location (see {!profile}),
    and the engine always runs the change-driven activity schedule —
    change detection is what that scheduler does anyway, and both
    schedules produce identical values. The tape itself is unchanged; in
    particular a named statement that is a pure copy is still eliminated
    and gets no row (its engine cost is zero and its hit counts equal its
    producer's). *)

val line_db : t -> Sic_coverage.Line_coverage.db option
(** The database of the internal instrumentation performed by
    [~builtin_line:true]; [None] otherwise. *)

val stats : t -> string
(** One-line tape composition summary (instruction/slot counts, how many
    dropped to the boxed wide path) for bench output and debugging. *)

val to_backend : name:string -> t -> Backend.t

val create : ?builtin_line:bool -> Sic_ir.Circuit.t -> Backend.t
(** [build] + [to_backend ~name:"compiled"]. *)

val profile : t -> Profile.design_profile option
(** The accumulated profile of a [?profile] build ([None] otherwise).
    Hit counts are value-change counts, identical across the plain and
    activity schedules and across worker splits; timings are present only
    under {!Sampled}. Hit and time counts keep accumulating across
    {!Backend.t.restore}; the cycle count restarts from 0. *)

val exec_counts : t -> int array
(** Per-tape-position execution counts of a [?profile] build: the
    dirty-flag scheduler's exact re-evaluation counts ([[||]] when not
    profiling). Live-only diagnostic — deliberately not part of the
    {!Profile} artifact, whose bytes must not depend on the scheduler. *)
