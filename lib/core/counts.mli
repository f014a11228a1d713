(** The simulator-independent coverage interface (§3): a map from cover
    statement name (including instance path) to a saturating count, one
    common on-disk format, and the trivial pointwise merge of §5.3. *)

type t = (string, int) Hashtbl.t

val create : unit -> t
val get : t -> string -> int
(** 0 for unknown names. *)

val set : t -> string -> int -> unit
val add : t -> string -> int -> unit
(** Saturating accumulate. *)

val incr : t -> string -> unit
val sat_add : int -> int -> int
(** Saturating integer addition (the counter semantics of §3). *)

val names : t -> string list
(** Sorted. *)

val to_sorted_list : t -> (string * int) list
val of_list : (string * int) list -> t
val total_points : t -> int
val covered_points : ?threshold:int -> t -> int
val covered : ?threshold:int -> t -> string list
(** Names covered at least [threshold] times (default 1) — the removal
    set of §5.3. *)

val merge : t list -> t
(** Pointwise saturating sum; missing keys count as zero, so partial
    instrumentations merge cleanly. Commutative and associative (so
    parallel, out-of-order merging is sound) but {e not} idempotent:
    merging the same run twice double-counts. *)

val merge_into : t -> t -> unit
(** [merge_into acc t] adds [t] into [acc] in place, as {!merge} would. *)

val union_max : t list -> t
(** Pointwise maximum. Commutative, associative {e and} idempotent — safe
    under at-least-once delivery (e.g. a retried worker reporting the same
    run twice). Like {!merge}, missing keys count as zero and zero-count
    points are preserved. *)

val equal : t -> t -> bool

(** {1 Run-to-run comparison} *)

type diff = {
  newly_covered : string list;
  lost : string list;
  only_before : string list;
  only_after : string list;
}

val diff : before:t -> after:t -> diff
val render_diff : diff -> string

(** {1 Interchange format}

    One line per point: [<count> <name>]; [#] starts a comment. The first
    line written is always the versioned header
    [# sic coverage counts v1]; a reader encountering any other
    [# sic coverage counts vN] line raises {!Bad_format} instead of
    skipping it as a comment, so files from an incompatible future format
    fail loudly. *)

exception Bad_format of string
(** {!Sic_obs.Artifact.Bad_format} itself, re-exported: the message names
    the offending line, e.g. ["line 3: bad count in \"x y\""]. *)

val save : string -> t -> unit
val to_string : t -> string
val of_string : string -> t
val load : string -> t
