(** A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
    learning, VSIDS-style branching with phase saving, and Luby restarts.
    Built from scratch as the engine under the SymbiYosys-analogue BMC
    backend. *)

type t

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; variables are positive integers. *)

val nb_vars : t -> int

val nb_clauses : t -> int
(** Clauses added with {!add_clause} (learnt ones not included). *)

(** A literal is [+v] (variable true) or [-v] (variable false). *)

val add_clause : t -> int list -> unit
(** Add a clause. Adding the empty clause makes the instance trivially
    unsatisfiable. Clauses may be added between [solve] calls. *)

type result = Sat | Unsat

val solve : ?assumptions:int list -> t -> result
(** Solve under optional assumption literals (assumed at decision level
    for this call only). *)

val value : t -> int -> bool
(** Model value of a variable after [Sat]. Unconstrained variables report
    their saved phase. *)

val stats : t -> string
(** One-line human-readable statistics (conflicts, decisions,
    propagations). *)

(** {1 DIMACS interchange} *)

exception Dimacs_error of string

val to_dimacs : t -> string
(** Export the user clauses in DIMACS CNF, for external solvers. *)

val of_dimacs : string -> t
(** Parse a DIMACS instance into a fresh solver. *)
