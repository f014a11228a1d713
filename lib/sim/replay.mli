(** Record-and-replay testbenches (§5.1): capture the top-level inputs of
    a run once, then replay them into any backend — isolating raw
    simulation time from stimulus generation, and providing the common
    trace format the BMC backend emits witnesses in. *)

module Bv = Sic_bv.Bv

type trace = {
  input_names : string list;  (** includes reset *)
  frames : Bv.t array array;  (** frames.(cycle).(input index) *)
}

val cycles : trace -> int

val record : Backend.t -> cycles:int -> (Backend.t -> int -> unit) -> trace
(** Step the backend [cycles] edges; each cycle the driver pokes inputs
    first, then the pre-edge input values are captured. *)

val replay : Backend.t -> trace -> unit

(** {1 Text interchange}

    A versioned, line-oriented serialization (header, input names, one
    line of space-separated binary values per cycle — the string length is
    the value's width). This is how fleet workers ship BMC witness traces
    back over their result pipes, and how witness seeds persist on disk. *)

exception Bad_format of string
(** {!Sic_obs.Artifact.Bad_format} itself, re-exported: the message names
    the offending line. *)

val format_header : string
(** First line of the v1 text format, ["# sic replay trace v1"]. *)

val to_string : trace -> string
val of_string : string -> trace
(** Raises {!Bad_format} on malformed or truncated input. *)

val save_vcd : string -> Backend.t -> trace -> unit
val load_vcd : string -> trace
