(** A CDCL SAT solver: two-watched-literal propagation, first-UIP conflict
    learning, VSIDS-style branching with phase saving, and Luby restarts.
    Built from scratch as the engine under the SymbiYosys-analogue BMC
    backend.

    A caller that knows the instance's structure can {!prefer} variables
    to branch on first (BMC prefers a circuit's input bits, on which every
    gate output depends).

    Every clause, problem or learnt, lives in one growable int array: a
    three-word header (size, then the next clause in each of its two
    watch lists) followed by its literals. The watch lists are singly
    linked through those headers, so adding a clause or moving a watch
    allocates nothing on the OCaml heap. The search is fixed by the
    clauses added and their order: each watch list is visited in the
    same order as by a solver that keeps its lists as OCaml lists and
    rebuilds each one it visits, so the same calls give the same
    conflicts, learnt clauses, decisions, models and counters. Each
    problem clause is stored once; that store is what {!to_dimacs}
    exports. *)

type t

val create : ?vars:int -> unit -> t
(** [vars] (default 16) sizes the per-variable arrays and the clause
    store for about that many variables, so an instance of that size
    does not regrow them; more variables can always be added. The search
    does not depend on it. *)

val new_var : t -> int
(** Allocate a fresh variable; variables are positive integers. *)

val nb_vars : t -> int

val nb_clauses : t -> int
(** Problem clauses of two or more literals that {!add_clause} kept after
    simplifying against the root assignment. Units become root
    assignments and are not counted; neither are learnt clauses. O(1). *)

(** A literal is [+v] (variable true) or [-v] (variable false). *)

val add_clause : t -> int list -> unit
(** Add a clause. Adding the empty clause makes the instance trivially
    unsatisfiable. Clauses may be added between [solve] calls. *)

val add_clause2 : t -> int -> int -> unit
val add_clause3 : t -> int -> int -> int -> unit
(** [add_clause2 s a b] is [add_clause s [a; b]], and [add_clause3]
    likewise, without allocating when no literal is repeated or false at
    the root (every Tseitin clause of {!Gate} in practice). *)

val prefer : t -> int list -> unit
(** [prefer s vars] raises the VSIDS activity of each variable in [vars]
    to 1e50, so the search branches on them before any other unassigned
    variable. Conflict bumps keep growing, so later conflicts can still
    overtake them. *)

type result = Sat | Unsat

val solve : ?assumptions:int list -> t -> result
(** Solve under optional assumption literals (assumed at decision level
    for this call only). *)

val value : t -> int -> bool
(** Model value of a variable after [Sat]. Unconstrained variables report
    their saved phase. *)

val decisions : t -> int
val conflicts : t -> int

val propagations : t -> int
(** Search counters, cumulative over every {!solve} call on [t]. *)

val stats : t -> string
(** One-line human-readable statistics (conflicts, decisions,
    propagations). *)

(** {1 DIMACS interchange} *)

exception Dimacs_error of string

val to_dimacs : t -> string
(** Export, in DIMACS CNF, a problem equisatisfiable with the clauses
    added so far: the empty clause if the solver already derived
    unsatisfiability, then the root units, then the stored problem
    clauses (each simplified against the root assignment when it was
    added). Learnt clauses are left out. *)

val of_dimacs : string -> t
(** Parse a DIMACS instance into a fresh solver. *)
