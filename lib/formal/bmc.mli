(** Bounded model checking for cover-trace generation — the SymbiYosys
    analogue (§3.4, §5.5): per cover point, find an input sequence that
    reaches it within the bound, or prove none exists. Witness traces
    replay cycle-exactly on the software backends. *)

type verdict =
  | Reachable of Sic_sim.Replay.trace
  | Unreachable_within_bound

type report = {
  bound : int;
  results : (string * verdict) list;
  solver_stats : string;
}

val check_covers :
  ?bound:int -> ?covers:string list -> ?reset_cycles:int -> Sic_ir.Circuit.t -> report
(** Default bound 40 (the paper's riscv-mini experiment); [covers]
    restricts the targets; reset is constrained high for the first
    [reset_cycles] (default 1) and low after, matching the test-bench
    convention.

    With [covers], only their cone of influence is encoded: the registers,
    memories and inputs their predicates depend on, through any number of
    cycles. Verdicts are those of the whole circuit; a witness gives every
    input outside the cone the value 0. Without [covers] the whole circuit
    is encoded. The [bmc.unroll] span records the encoding's [vars],
    [clauses] and [regs_in_cone]. *)

val unreachable : report -> string list
val reachable : report -> (string * Sic_sim.Replay.trace) list
val render : report -> string

(** {1 k-induction}

    Strengthens "unreachable within the bound" to "unreachable, period":
    base case (BMC from the initial state) plus an inductive step from an
    arbitrary state. *)

type induction_verdict =
  | Dead_forever  (** proved unreachable at every cycle *)
  | Cex_within_bound of Sic_sim.Replay.trace
  | Unknown  (** try a larger [k] *)

val prove_unreachable :
  ?k:int -> ?covers:string list -> ?reset_cycles:int -> Sic_ir.Circuit.t ->
  (string * induction_verdict) list
(** Both the base case and the inductive step encode only the cone of
    influence of [covers] (when given). *)

val render_induction : (string * induction_verdict) list -> string
