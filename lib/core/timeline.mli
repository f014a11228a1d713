(** Coverage-convergence timelines: how many cover points a run had hit
    after each unit of work — the per-run record behind the paper's
    coverage-over-time plots. Sampled by the simulation backends, the
    fuzzer and the modelled-FPGA driver; persisted per run by the
    coverage database in a versioned text format (like {!Counts}). *)

type t = {
  total : int;  (** instrumented cover points (0 when unknown) *)
  samples : (int * int) list;
      (** (at, covered) in the run's own budget unit — simulated cycles,
          fuzz executions — with strictly increasing [at] *)
}

val empty : t
val final_covered : t -> int
val last_at : t -> int

val saturation_at : ?frac:float -> t -> int option
(** Earliest [at] reaching [frac] (default 0.99) of the final coverage —
    where the curve flattens. [None] when nothing was ever covered. *)

(** {1 Building} *)

type builder

val builder : unit -> builder

val record : builder -> at:int -> covered:int -> unit
(** Append a sample. A repeated [at] replaces the previous sample; a
    decreasing [at] raises [Invalid_argument]. *)

val build : ?total:int -> builder -> t

(** {1 Interchange format}

    Line-oriented text: the versioned [# sic coverage timeline v1] header,
    a [total N] line, then one [<at> <covered>] line per sample. [#]
    comments and blank lines are ignored; an unknown [# sic coverage
    timeline vN] header raises {!Bad_format} instead of being skipped. *)

exception Bad_format of string
(** {!Sic_obs.Artifact.Bad_format} itself, re-exported: the message
    carries a [line N:] prefix locating the offending line. *)

val to_string : t -> string
val of_string : string -> t
val save : string -> t -> unit
val load : string -> t

(** {1 Rendering} *)

val sparkline : ?width:int -> t -> string
(** Fixed-width ASCII curve (space = 0% up to [@] = 100%), used by
    [sic db report --timeline]. *)
