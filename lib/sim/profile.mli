(** The engine profiler's versioned artifact: per-tape-instruction hit
    counts and sampled self-times attributed to IR statements and source
    locations. See profile.ml for the format and the determinism
    contract ([hits] = value-changing evaluations, so the bytes are
    independent of scheduler mode and worker count). *)

type row = {
  idx : int;  (** tape position *)
  hits : int;  (** value-changing evaluations *)
  time_ns : int;  (** sampled self-time; 0 in counts-only profiles *)
  is_root : bool;  (** produces the named statement's own value *)
  op : string;  (** instruction mnemonic *)
  root : string;  (** originating statement's defined name *)
  loc : string;  (** [file:line], or [-] when unknown *)
}

type design_profile = {
  design : string;
  runs : int;  (** [run_tape] invocations folded in *)
  cycles : int;
  rows : row array;  (** indexed by tape position *)
}

type t = design_profile list

exception Bad_format of string
(** {!Sic_obs.Artifact.Bad_format} itself, re-exported. *)

(** {1 Interchange} *)

val to_string : t -> string
val of_string : string -> t
(** Raises {!Bad_format} (with a line number) on malformed input or a
    version this reader does not understand. *)

val save : string -> t -> unit
val load : string -> t

val merge : t list -> t
(** Positional pointwise sum of [hits]/[time_ns] per design (fleet
    aggregation); raises {!Bad_format} if the same design appears with
    mismatched tape shapes. *)

(** {1 Aggregation} *)

type stmt_agg = {
  s_root : string;
  s_loc : string;
  s_hits : int;  (** how often the statement's value changed *)
  s_time_ns : int;  (** self-time summed over the statement's instructions *)
  s_instrs : int;
}

type line_agg = {
  l_loc : string;
  l_hits : int;
  l_time_ns : int;
  l_roots : string list;  (** statements on this line, hottest first *)
}

val by_statement : design_profile -> stmt_agg list
(** Hottest first: by sampled time, then hits, then name. *)

val by_line : design_profile -> line_agg list

val sampled : design_profile -> bool
(** True when the profile carries any sampled timings. *)

(** {1 Rendering} *)

val render : ?top:int -> t -> string
(** The [sic hotspots] ranked tables (per source line, per statement). *)

val folded : t -> string
(** Collapsed-stack lines ([design;file:line;statement;op <value>]) for
    flamegraph tooling. *)
