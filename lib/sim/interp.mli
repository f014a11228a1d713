(** Tree-walking IR interpreter — the Treadle analogue (§3.1): instant
    start-up, reference semantics, native support for [cover],
    [cover-values] and [stop]. Lazily evaluates signals per cycle with
    memoization and detects combinational loops at evaluation time. *)

val create : Sic_ir.Circuit.t -> Backend.t
(** Accepts high-form circuits (lowers them internally) or low-form
    circuits (used as-is). *)

val create_profiled : Sic_ir.Circuit.t -> Backend.t * (unit -> (string * int) list)
(** [create] plus the reference for the engine profiler's hit counts
    ({!Profile}): per statement — every node and every non-register
    driven sink — the number of clock edges at which its pre-edge value
    differed from the one at the previous edge (zero before the first),
    sorted by name. *)
