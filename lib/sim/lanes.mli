(** Bit-parallel lane engine: up to 62 independent stimulus seeds per
    tape pass. The same shared {!Tape} the scalar {!Compiled} engine
    decodes is re-decoded in {e bit-sliced, transposed} form — every
    sliceable signal, 1-bit or wider, is stored as one packed native
    [int] {e plane} per bit, where bit [l] of a plane is lane [l]'s
    value of that bit. Structural instructions (copies, pads, constant
    shifts, bit extracts, concatenations, sign extensions) resolve at
    decode time to plane {e aliasing} and cost nothing at runtime;
    compute instructions (mux, add/sub, compares, bitwise ops,
    reductions) run as whole-plane kernels, a few bitwise ops per plane
    advancing all 62 lanes at once (ripple-carry for arithmetic,
    MSB-first lexicographic ripple for compares). Instructions the
    slicer has no kernel for (division, multiplication, dynamic shifts,
    memory ports) fall back to per-lane strided storage (or per-lane
    [Bv.t] rows beyond 62 bits) executed by a lane loop with the scalar
    engine's exact semantics, and a decode-time fixpoint keeps the two
    representations from ever feeding each other — so {e any} design
    runs, and mux/arith-heavy designs still vectorize their sliceable
    majority.

    Exactness is the paper's simulator-independence argument turned into
    an oracle: coverage counts are a property of the value stream, so lane
    [k] driven by stimulus stream [k] must produce counts byte-identical
    to a solo {!Compiled} run driven by the same stream —
    {!lane_counts}[ t k] is [Counts.equal] to that run's counts. Cover
    fires are harvested per pass with a count-trailing-zeros sweep over
    the packed fire plane ({!Sic_bv.Bv.ctz_int}), one increment per
    (point, fired lane). *)

type t

val build : ?lanes:int -> Sic_ir.Circuit.t -> t
(** Decode the shared tape for [lanes] parallel seeds (default and
    maximum 62, clamped to [1, 62]). *)

val lanes : t -> int

val vectorized_fraction : t -> float
(** Fraction of tape instructions decoded to lane-parallel form — plane
    aliases (free) plus whole-plane kernels; the rest iterate per lane.
    This is the number that explains a design's lane speedup. *)

val stats : t -> string
(** Tape composition: aliased / plane-kernel / per-lane instruction
    counts plus slot and physical-plane totals. *)

val poke_lane : t -> lane:int -> string -> Sic_bv.Bv.t -> unit
(** Set an input in one lane only (other lanes keep their values). *)

val step : t -> int -> unit

val cycles : t -> int

val lane_counts : t -> int -> Sic_coverage.Counts.t
(** Coverage counts accumulated by one lane — exactly the counts a solo
    scalar run under the same stimulus stream would report. *)

val lane_finished : t -> int -> bool
(** Whether a [stop] fired in this lane. *)

val run_random : t -> streams:(unit -> int) array -> cycles:int -> unit
(** Drive every data input of every lane for [cycles] cycles, lane [l]
    drawing from [streams.(l)] (one stream per lane, length [lanes]).
    Per cycle and lane the draw order matches
    {!Backend.random_stimulus} exactly, so lane [l]'s stimulus is
    byte-identical to a solo run over the same stream. Does not reset;
    run {!Backend.reset_sequence} on the facade (or poke reset) first. *)

val to_backend : name:string -> t -> Backend.t
(** Lockstep facade: pokes drive all lanes with the same value, peeks and
    counts read lane 0, [finished] reports all lanes stopped. Under
    lockstep stimulus every lane equals a scalar run, so the facade drops
    into the differential suites as a sixth backend column. *)

val create : ?lanes:int -> Sic_ir.Circuit.t -> Backend.t
(** [to_backend ~name:"lanes" (build c)]. *)
