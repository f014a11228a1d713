(** The one place that decides how a versioned artifact is read and
    written. Every on-disk format goes through it: the text formats
    (counts, timeline, profile, replay) and the NDJSON ones (the database
    manifest, the exclusions file, the telemetry export).

    - A text format starts with a [# sic <kind> v1] header. Any other
      [# sic <kind> ...] line is rejected, not skipped as a comment, so a
      file from a future version cannot be misread as an empty or partial
      value.
    - An NDJSON format starts with a meta record
      [{"type":"meta","format":F,"version":V,...}].
    - Every error is one {!Bad_format} whose message names the physical
      line, and {!load} adds the path in front. *)

exception Bad_format of string
(** Messages start [line N: ...]; from {!load}, [<path>: line N: ...]. *)

val bad_format : int -> ('a, unit, string, 'b) format4 -> 'a
(** [bad_format lineno fmt ...] raises {!Bad_format} ["line <lineno>: ..."]. *)

(** {1 Text formats} *)

val lines : header:string -> (int -> string -> unit) -> string -> bool
(** [lines ~header f text] trims every line of [text] and calls
    [f lineno line] on each data line. It accepts the exact [header],
    raises at any other line of the header's family (the header minus its
    version word), and skips blank lines and [#] comments. Returns whether
    the header was seen; each format decides whether it is required. *)

val is_header : header:string -> int -> string -> bool
(** The header check of {!lines} for one trimmed line, for formats that
    parse positionally: [true] for the exact header, {!Bad_format} for
    another version of it, [false] otherwise. *)

(** {1 NDJSON formats} *)

val meta : format:string -> version:int -> (string * Json.t) list -> Json.t
(** The meta record: [type], [format], [version], then [fields]. *)

val records :
  format:string -> version:int -> (int -> Json.t -> 'a) -> string -> Json.t * 'a list
(** [records ~format ~version decode text] parses an NDJSON text: blank
    lines are skipped, and the first record must be a [meta] record of
    [format] and [version]. Every later
    record is passed to [decode] with its physical line number as soon as
    it is parsed. Returns the meta record and the decoded records in file
    order. A line that is not JSON raises {!Bad_format} at that line. *)

val append : string -> Json.t -> unit
(** Append one record as one line, creating the file if needed. *)

(** {1 Files} *)

val save : string -> string -> unit
(** Replace the file atomically: write a temporary file in the same
    directory, then rename it over [path]. A concurrent reader sees the
    old bytes or the new ones, never a prefix. No fsync. *)

val load : string -> (string -> 'a) -> 'a
(** [load path parse] reads the whole file and parses it, prefixing any
    {!Bad_format} message with [path]. *)
