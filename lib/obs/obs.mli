(** Structured telemetry for the compiler, the simulators and the fuzzer.

    The paper's §5 is an overhead study — compile-time cost of the coverage
    passes, simulation slowdown per metric, scan-chain cost on FPGA — and a
    coverage-guided flow lives or dies on cheap runtime feedback
    (cycles/sec, execs/sec). This module is the measurement substrate: a
    zero-dependency recorder of {b spans} (wall-clock timers with nesting),
    {b counters}, {b gauges} (timestamped samples), {b instants} (point
    events) and {b histograms}, with two exporters — newline-delimited JSON
    for offline analysis, and the Chrome trace-event format loadable in
    [about://tracing] / Perfetto.

    Telemetry is {b off by default} and every recording entry point is
    guarded by a single flag check, so instrumented hot paths cost nothing
    measurable when disabled. Timestamps come from a pluggable clock
    (default: [Unix.gettimeofday]; see DESIGN.md for the monotonic-clock
    caveat), so tests can substitute a deterministic one. *)

(** {1 Enabling} *)

val on : unit -> bool
(** The hot-path guard: true while recording. *)

val enable : unit -> unit
(** Start recording; the current instant becomes timestamp zero. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded events, counters and histograms. *)

val set_clock : (unit -> float) -> unit
(** Replace the clock (a function returning {b seconds}). Used by tests for
    determinism and by the bench harness to plug in a monotonic clock. *)

val now_us : unit -> float
(** Current clock reading in microseconds (absolute, not t0-relative). *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds, via a C stub: allocation-free and
    step-immune, precise enough to time single tape instructions. Not
    affected by {!set_clock} — this is the raw hardware clock, used by the
    engine profiler's sampled timing path. *)

(** {1 Events} *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** Attribute values attached to spans and instants. *)

type event =
  | Span of {
      name : string;
      start_us : float;  (** relative to [enable]'s timestamp zero *)
      dur_us : float;
      depth : int;  (** nesting level at the time the span was open *)
      args : (string * value) list;
    }
  | Gauge of { name : string; ts_us : float; gauge_value : float }
  | Instant of { name : string; ts_us : float; args : (string * value) list }

val events : unit -> event list
(** Recorded events in recording order (spans appear when they close). *)

(** {1 Cross-process aggregation}

    A fleet worker records its own telemetry, then ships it back to the
    orchestrator as an {!export} value inside its marshaled job result
    (the worker is a fork of the same binary, so the value's type is the
    same on both ends); the parent imports each one as a {b lane} —
    rebasing the worker's timestamps onto its own timestamp zero — so the
    exporters can render the whole [-j N] schedule in a single merged
    trace, one Perfetto track per worker process. *)

type lane = { lane_pid : int; lane_label : string; lane_events : event list }

val lanes : unit -> lane list
(** Imported lanes, in import order. Cleared by {!reset}. *)

type export = {
  ex_pid : int;  (** the exporting process *)
  ex_t0_us : float;  (** its absolute timestamp zero, for rebasing *)
  ex_events : event list;  (** its recorded events, in recording order *)
  ex_counters : (string * int) list;  (** its counters, in no order *)
}
(** One process's recorded telemetry, as a value. *)

val export : unit -> export
(** This process's recorded events and counters. Inverse of {!import}. *)

val import : ?label:string -> export -> unit
(** Add an {!export} as a new lane (labelled [label], default ["pid N"]),
    rebasing its timestamps onto this process's timestamp zero and adding
    its counters to ours. *)

(** {1 Spans} *)

type span_ctx
(** An open span: carries its start time and nesting depth. *)

val span_open : unit -> span_ctx
(** No-op (and [span_close] on the result is a no-op) when disabled. *)

val span_close : span_ctx -> name:string -> (string * value) list -> unit

val span : ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as a span. If [f] raises, the span is still
    recorded with an [("error", Bool true)] attribute and the exception is
    re-raised. *)

val record_span :
  name:string -> start_us:float -> dur_us:float -> (string * value) list -> unit
(** Record a span measured externally ([start_us] absolute, as from
    {!now_us}); it is rebased to timestamp zero. No-op when disabled. *)

(** {1 Counters, gauges, instants} *)

val count : ?by:int -> string -> unit
(** Bump a cumulative counter (exported once, in the summary). *)

val counter_value : string -> int

val gauge : string -> float -> unit
(** Record one timestamped sample of a named quantity (throughput etc.). *)

val instant : ?args:(string * value) list -> string -> unit

(** {1 Histograms} *)

module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile h q] for [q] in [0..100], by nearest-rank over the
      recorded values; [nan] when empty. *)
end

val histogram : string -> Histogram.t
(** Get or create a named histogram; exported in the summary. *)

(** {1 The runtime text sink} *)

val sink : (string -> unit) ref
(** Where all runtime text output goes — simulator [printf] statements
    ({!Sic_sim.Backend.print_sink} is this very ref) and any future
    human-facing chatter. Tests capture or silence everything by swapping
    it; [with_sink] does so with automatic restore. *)

val with_sink : (string -> unit) -> (unit -> 'a) -> 'a

(** {1 Export} *)

val ndjson_string : unit -> string
(** One JSON object per line: a [meta] header, then every event
    ([span]/[gauge]/[instant]), then [counter] and [histogram] summaries,
    then each imported lane ([lane] record followed by its events, which
    carry the worker's [pid]). The schema is documented in README.md
    ("Observability"). *)

val chrome_trace_string : ?pid:int -> ?tid:int -> unit -> string
(** A single JSON object in the Chrome trace-event format: spans as ["X"]
    (complete) events, gauges as ["C"] (counter) events, instants as ["i"],
    plus ["M"] thread-name metadata naming each track. Local events land
    on [pid]/[tid] (default: the real [Unix.getpid ()]); imported lanes
    land on their [lane_pid] track, one track per distinct pid, named by
    the lane's label when the pid shipped one lane and ["pid N"] when it
    shipped several (a pooled fleet worker ships one lane per job).
    Loadable in [about://tracing] and Perfetto. *)

val pp_ndjson_line : string -> string
(** Render one NDJSON telemetry line human-readably ([sic tail]'s
    formatter); lines that don't parse or aren't a known record type pass
    through unchanged. *)

(** {1 Reporting} *)

type span_stat = {
  stat_name : string;
  calls : int;
  total_us : float;
  mean_us : float;
  min_us : float;
  max_us : float;
}

val span_stats : unit -> span_stat list
(** Spans grouped by name, in order of first occurrence. *)

val render_span_table : unit -> string
(** The [sic profile] timing table: one row per distinct span name. *)
