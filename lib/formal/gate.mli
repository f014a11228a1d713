(** Tseitin encoding of word-level operations into CNF, with structural
    hashing.

    A {!bits} value is an array of SAT literals, LSB first. The word-level
    operators mirror {!Sic_ir.Eval} exactly (same width rules, same
    signedness handling); the test suite checks the two against each other
    on random expressions and inputs.

    {!and2}, {!xor2} and {!ite} memoise on canonical operands (operand
    order, the operands' signs for [xor2], the selector's sign for [ite]):
    asking again for a gate the context already built, in any of its
    equivalent forms, returns the same literal and adds no variable or
    clause. {!or2} and everything built from these gates share through
    them. *)

module Bv = Sic_bv.Bv

exception Unsupported of string
(** An operation the encoding does not support (e.g. very wide
    multiplication); {!Sic_formal.Bmc} reports it per cover point. *)

type ctx
(** An encoding context: the solver, a literal constrained true, and the
    table of gates built so far. *)

type bits = int array
(** A word as SAT literals, LSB first. *)

val create : Sat.t -> ctx

val solver : ctx -> Sat.t

(** {1 Literal-level primitives} *)

val tt : ctx -> int
(** The always-true literal. *)

val ff : ctx -> int
(** The always-false literal. *)

val fresh : ctx -> int
val clause : ctx -> int list -> unit
val and2 : ctx -> int -> int -> int
val or2 : ctx -> int -> int -> int
val xor2 : ctx -> int -> int -> int

val ite : ctx -> int -> int -> int -> int
(** [ite ctx s a b] is [s ? a : b]. *)

val and_list : ctx -> int list -> int
val or_list : ctx -> int list -> int
val eq2 : ctx -> int -> int -> int

(** {1 Words} *)

val const_bits : ctx -> Bv.t -> bits
val fresh_bits : ctx -> int -> bits
val zero_bits : ctx -> int -> bits

val extend : ctx -> Sic_ir.Ty.t -> bits -> int -> bits
(** Zero- or sign-extend (per the type) to the given width. *)

val mux_bits : ctx -> int -> bits -> bits -> bits
val eq_bits : ctx -> bits -> bits -> int
val adder : ctx -> ?carry_in:int -> bits -> bits -> int -> bits
val negate : ctx -> bits -> int -> bits

val lt_u : ctx -> bits -> bits -> int
(** Unsigned [a < b]. *)

val lt_s : ctx -> bits -> bits -> int
(** Signed [a < b]; operands must arrive sign-extended to equal widths. *)

val shift_const : bits -> int -> int -> fill:int -> bits
(** [shift_const a n w ~fill] left-shifts by [n] at width [w], shifting
    in the [fill] literal. *)

val mul : ctx -> bits -> bits -> int -> bits
(** Shift-and-add multiplier. Raises {!Unsupported} beyond 256 bits. *)

(** {1 Word-level operator dispatch (mirrors {!Sic_ir.Eval})} *)

val unop : ctx -> Sic_ir.Expr.unop -> ta:Sic_ir.Ty.t -> bits -> bits
val binop : ctx -> Sic_ir.Expr.binop -> ta:Sic_ir.Ty.t -> tb:Sic_ir.Ty.t -> bits -> bits -> bits
val intop : ctx -> Sic_ir.Expr.intop -> int -> ta:Sic_ir.Ty.t -> bits -> bits
val bits_op : bits -> hi:int -> lo:int -> bits

val model_value : ctx -> bits -> Bv.t
(** Read a word back from a satisfying assignment as a bitvector. *)
