(** A minimal JSON value type with a printer and a parser — just enough for
    the telemetry exporters ({!Obs.ndjson_string},
    {!Obs.chrome_trace_string}) and for tests to round-trip what they emit.
    No external dependencies; integers are kept distinct from floats so
    counters survive a round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** a non-finite value prints as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val parse : string -> t
(** Parse one JSON value (surrounding whitespace allowed). Raises
    {!Parse_error} on malformed input or trailing garbage. *)

val member : string -> t -> t option
(** [member key json] looks a field up in an [Obj]; [None] otherwise. *)

val string_member : string -> t -> string option
val int_member : string -> t -> int option

val float_member : string -> t -> float option
(** Also accepts an [Int] field, widening it. *)

val bool_member : string -> t -> bool option

val equal : t -> t -> bool
