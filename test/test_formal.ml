(** Tests for the formal backend: the CDCL SAT solver (against brute
    force), the bit-blaster (against the reference evaluator), and BMC
    cover-trace generation including the §5.5 riscv-mini experiment. *)

module Bv = Sic_bv.Bv
module Sat = Sic_formal.Sat
module Gate = Sic_formal.Gate
module Bmc = Sic_formal.Bmc
open Helpers
open Sic_ir

(* --- SAT solver ----------------------------------------------------- *)

let test_sat_basics () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "b true in model" true (Sat.value s b);
  Sat.add_clause s [ -b ];
  Alcotest.(check bool) "now unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_pigeonhole () =
  (* 4 pigeons in 3 holes: classic small UNSAT instance *)
  let s = Sat.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  Array.iter (fun row -> Sat.add_clause s (Array.to_list row)) v;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Sat.add_clause s [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ -a; b ];
  Alcotest.(check bool) "sat under a" true (Sat.solve ~assumptions:[ a ] s = Sat.Sat);
  Alcotest.(check bool) "model has b" true (Sat.value s b);
  Sat.add_clause s [ -b ];
  Alcotest.(check bool) "unsat under a" true (Sat.solve ~assumptions:[ a ] s = Sat.Unsat);
  Alcotest.(check bool) "still sat without assumption" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "a false in model" false (Sat.value s a)

let test_sat_incremental () =
  (* solving repeatedly under different assumptions must match fresh
     solves: learned clauses stay sound across calls *)
  let nvars = 8 in
  let rng = Sic_fuzz.Rng.create 77 in
  let clauses =
    List.init 25 (fun _ ->
        List.init
          (1 + Sic_fuzz.Rng.int rng 3)
          (fun _ ->
            let v = 1 + Sic_fuzz.Rng.int rng nvars in
            if Sic_fuzz.Rng.bool rng then v else -v))
  in
  let incremental = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var incremental)
  done;
  List.iter (Sat.add_clause incremental) clauses;
  for trial = 1 to 30 do
    let assumptions =
      List.init
        (Sic_fuzz.Rng.int rng 4)
        (fun _ ->
          let v = 1 + Sic_fuzz.Rng.int rng nvars in
          if Sic_fuzz.Rng.bool rng then v else -v)
    in
    let fresh = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var fresh)
    done;
    List.iter (Sat.add_clause fresh) clauses;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d matches a fresh solver" trial)
      true
      (Sat.solve ~assumptions incremental = Sat.solve ~assumptions fresh)
  done

(* random 3-CNF, checked against brute force *)
let gen_cnf =
  QCheck.Gen.(
    let* nvars = int_range 3 10 in
    let* nclauses = int_range 1 45 in
    let lit = map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (nvars - 1)) bool in
    let* clauses = list_size (return nclauses) (list_size (int_range 1 3) lit) in
    return (nvars, clauses))

let brute_force_sat nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let value = List.nth assignment (abs l - 1) in
              if l > 0 then value else not value)
            clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

(* the brute-force check, with a random subset of the variables preferred
   for branching: a preference steers the search, never the verdict *)
let test_sat_random =
  let gen =
    QCheck.Gen.(
      let* nvars, clauses = gen_cnf in
      let* preferred = list_size (int_bound nvars) (int_range 1 nvars) in
      return (nvars, clauses, preferred))
  in
  QCheck.Test.make ~count:200 ~name:"cdcl agrees with brute force"
    (QCheck.make gen) (fun (nvars, clauses, preferred) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (Sat.add_clause s) clauses;
      Sat.prefer s preferred;
      let result = Sat.solve s in
      let expected = brute_force_sat nvars clauses in
      match result with
      | Sat.Sat ->
          (* verify the model actually satisfies all clauses *)
          expected
          && List.for_all
               (fun clause ->
                 List.exists
                   (fun l -> if l > 0 then Sat.value s l else not (Sat.value s (-l)))
                   clause)
               clauses
      | Sat.Unsat -> not expected)

(* --- bit-blaster vs evaluator ---------------------------------------- *)

let test_gate_vs_eval =
  let gen =
    QCheck.Gen.(
      let* e = gen_expr ~vars:standard_vars in
      let* inputs = gen_inputs ~vars:standard_vars in
      return (e, inputs))
  in
  QCheck.Test.make ~count:300 ~name:"bit-blast equals reference eval"
    (QCheck.make ~print:(fun (e, _) -> Printer.expr_to_string e) gen)
    (fun (e, inputs) ->
      let ty_of n = List.assoc n standard_vars in
      let value_of n = List.assoc n inputs in
      match Eval.eval ~ty_of ~value_of e with
      | exception Expr.Type_error _ -> QCheck.assume_fail ()
      | expected ->
          let solver = Sat.create () in
          let ctx = Gate.create solver in
          let env = List.map (fun (n, v) -> (n, Gate.const_bits ctx v)) inputs in
          let rec blast (e : Expr.t) : Gate.bits =
            match e with
            | Expr.Ref n -> List.assoc n env
            | Expr.UIntLit v | Expr.SIntLit v -> Gate.const_bits ctx v
            | Expr.Mux (s, a, b) ->
                let sb = blast s in
                Gate.mux_bits ctx sb.(0) (blast a) (blast b)
            | Expr.Unop (op, a) -> Gate.unop ctx op ~ta:(Expr.type_of ty_of a) (blast a)
            | Expr.Binop (op, a, b) ->
                Gate.binop ctx op ~ta:(Expr.type_of ty_of a) ~tb:(Expr.type_of ty_of b)
                  (blast a) (blast b)
            | Expr.Intop (op, n, a) ->
                Gate.intop ctx op n ~ta:(Expr.type_of ty_of a) (blast a)
            | Expr.Bits (a, hi, lo) -> Gate.bits_op (blast a) ~hi ~lo
          in
          let out = blast e in
          (match Sat.solve solver with Sat.Sat -> () | Sat.Unsat -> ());
          let got = Gate.model_value ctx out in
          Bv.equal got expected)

let test_dimacs_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"dimacs export/import preserves satisfiability"
       (QCheck.make gen_cnf) (fun (nvars, clauses) ->
         let s1 = Sat.create () in
         for _ = 1 to nvars do
           ignore (Sat.new_var s1)
         done;
         List.iter (Sat.add_clause s1) clauses;
         let s2 = Sat.of_dimacs (Sat.to_dimacs s1) in
         Sat.solve s1 = Sat.solve s2))

(* [add_clause2]/[add_clause3] are [add_clause] on two and three literals:
   over random clauses with repeats, tautologies and units (so literals
   that are true or false at the root), the same clauses are stored and
   the same search runs *)
let test_add_clause_direct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"add_clause2/3 store what add_clause stores"
       (QCheck.make gen_cnf) (fun (nvars, clauses) ->
         let solver add =
           let s = Sat.create () in
           for _ = 1 to nvars do
             ignore (Sat.new_var s)
           done;
           List.iter (add s) clauses;
           ignore (Sat.solve s);
           (Sat.to_dimacs s, Sat.stats s)
         in
         let direct s = function
           | [ a; b ] -> Sat.add_clause2 s a b
           | [ a; b; c ] -> Sat.add_clause3 s a b c
           | lits -> Sat.add_clause s lits
         in
         solver Sat.add_clause = solver direct))

(* the export is equisatisfiable, not a copy: units become root
   assignments and simplify later clauses, a unit added after a solve
   waits as a root unit for the next one, and a solver that units made
   unsatisfiable exports the empty clause *)
let test_dimacs_root_units () =
  let round_trip name s expected =
    let s' = Sat.of_dimacs (Sat.to_dimacs s) in
    Alcotest.(check bool) (name ^ ": export agrees") true (Sat.solve s' = expected);
    Alcotest.(check bool) (name ^ ": original agrees") true (Sat.solve s = expected)
  in
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  Sat.add_clause s [ a ];
  Sat.add_clause s [ -a; b; c ];
  Sat.add_clause s [ -b; c ];
  Sat.add_clause s [ a; -c ];
  round_trip "root units" s Sat.Sat;
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; -b ];
  round_trip "exactly one of a, b" s Sat.Sat;
  Sat.add_clause s [ a ];
  Sat.add_clause s [ b ];
  round_trip "units added after a solve" s Sat.Unsat;
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a ];
  Sat.add_clause s [ -a ];
  Alcotest.(check bool) "the empty clause is exported" true
    (contains ~needle:"\n0\n" (Sat.to_dimacs s));
  round_trip "unsat by units" s Sat.Unsat

(* exhaustive gate checks at small widths: adder and comparators over all
   4-bit operand pairs, solved as constants (no search needed) *)
let test_gate_exhaustive () =
  let solver = Sat.create () in
  let ctx = Gate.create solver in
  (match Sat.solve solver with Sat.Sat -> () | Sat.Unsat -> Alcotest.fail "trivial sat");
  for a = 0 to 15 do
    for b = 0 to 15 do
      let ba = Gate.const_bits ctx (Bv.of_int ~width:4 a) in
      let bb = Gate.const_bits ctx (Bv.of_int ~width:4 b) in
      let sum = Gate.adder ctx ba bb 5 in
      Alcotest.(check int)
        (Printf.sprintf "%d+%d" a b)
        (a + b)
        (Bv.to_int_trunc (Gate.model_value ctx sum));
      let lt = Gate.lt_u ctx ba bb in
      Alcotest.(check bool)
        (Printf.sprintf "%d<%d" a b)
        (a < b)
        (Bv.to_bool (Gate.model_value ctx [| lt |]));
      let eq = Gate.eq_bits ctx ba bb in
      Alcotest.(check bool)
        (Printf.sprintf "%d=%d" a b)
        (a = b)
        (Bv.to_bool (Gate.model_value ctx [| eq |]))
    done
  done

(* --- structural hashing ---------------------------------------------- *)

(* each equivalent form of a gate the context already built returns its
   literal and allocates nothing; every hashed gate still computes its
   function under all eight assignments of its operands *)
let test_gate_hashing () =
  let solver = Sat.create () in
  let ctx = Gate.create solver in
  let a = Gate.fresh ctx and b = Gate.fresh ctx and s = Gate.fresh ctx in
  let same name expected build =
    let vars = Sat.nb_vars solver and clauses = Sat.nb_clauses solver in
    Alcotest.(check int) name expected (build ());
    Alcotest.(check int) (name ^ ": no new variable") vars (Sat.nb_vars solver);
    Alcotest.(check int) (name ^ ": no new clause") clauses (Sat.nb_clauses solver)
  in
  let ab = Gate.and2 ctx a b in
  same "and2 repeated" ab (fun () -> Gate.and2 ctx a b);
  same "and2 commuted" ab (fun () -> Gate.and2 ctx b a);
  let or_ = Gate.or2 ctx a (-b) in
  same "or2 is and2 of the negations" or_ (fun () -> -Gate.and2 ctx (-a) b);
  same "or2 commuted" or_ (fun () -> Gate.or2 ctx (-b) a);
  let x = Gate.xor2 ctx a b in
  same "xor2 repeated" x (fun () -> Gate.xor2 ctx a b);
  same "xor2 commuted" x (fun () -> Gate.xor2 ctx b a);
  same "xor2 (-a) b = -(xor2 a b)" (-x) (fun () -> Gate.xor2 ctx (-a) b);
  same "xor2 a (-b) = -(xor2 a b)" (-x) (fun () -> Gate.xor2 ctx a (-b));
  same "xor2 (-a) (-b) = xor2 a b" x (fun () -> Gate.xor2 ctx (-b) (-a));
  let i = Gate.ite ctx s a b in
  same "ite repeated" i (fun () -> Gate.ite ctx s a b);
  same "ite on the negated selector" i (fun () -> Gate.ite ctx (-s) b a);
  let holds l = if l > 0 then Sat.value solver l else not (Sat.value solver (-l)) in
  for m = 0 to 7 do
    let va = m land 1 <> 0 and vb = m land 2 <> 0 and vs = m land 4 <> 0 in
    let lit v x = if x then v else -v in
    (match Sat.solve ~assumptions:[ lit a va; lit b vb; lit s vs ] solver with
    | Sat.Sat -> ()
    | Sat.Unsat -> Alcotest.fail "gate definitions must be satisfiable");
    let at = Printf.sprintf " at a=%b b=%b s=%b" va vb vs in
    Alcotest.(check bool) ("and2" ^ at) (va && vb) (holds ab);
    Alcotest.(check bool) ("or2" ^ at) (va || not vb) (holds or_);
    Alcotest.(check bool) ("xor2" ^ at) (va <> vb) (holds x);
    Alcotest.(check bool) ("ite" ^ at) (if vs then va else vb) (holds i)
  done

(* hashing shares the gates repeated within and across frames: whole-circuit
   uart at bound 40 encoded 10,447 variables before it *)
let test_gate_hashing_uart () =
  let low = lower (fst (Sic_coverage.Line_coverage.instrument (Sic_designs.Uart.circuit ()))) in
  let u = Sic_formal.Unroll.unroll low ~bound:40 in
  let vars = Sat.nb_vars (Gate.solver u.Sic_formal.Unroll.ctx) in
  Alcotest.(check bool)
    (Printf.sprintf "uart at bound 40: %d < 10447 variables" vars)
    true (vars < 10447)

(* --- BMC -------------------------------------------------------------- *)

let test_bmc_fsm () =
  (* cover state C of the Figure 7 FSM: reachable in >= 3 cycles; an
     impossible state encoding (3) is unreachable *)
  let c, _ = fsm_circuit () in
  let low = lower c in
  let low, _db = Sic_coverage.Fsm_coverage.instrument low in
  let report = Bmc.check_covers ~bound:8 low in
  let get name = List.assoc name report.Bmc.results in
  (match get "fsm_state_state_C" with
  | Bmc.Reachable trace ->
      Alcotest.(check bool) "at least 3 cycles to reach C" true
        (Sic_sim.Replay.cycles trace >= 3);
      (* replay on the interpreter and confirm the cover fires *)
      let b = Sic_sim.Interp.create low in
      Sic_sim.Replay.replay b trace;
      Alcotest.(check bool) "trace replays to cover" true
        (Sic_coverage.Counts.get (b.Sic_sim.Backend.counts ()) "fsm_state_state_C" > 0)
  | Bmc.Unreachable_within_bound -> Alcotest.fail "state C must be reachable");
  (* all legal transitions of this FSM are reachable; none is dead *)
  Alcotest.(check bool) "no unreachable points in this FSM" true
    (Bmc.unreachable report = [])

let test_bmc_unreachable () =
  (* a cover with a contradictory predicate is unreachable *)
  let cb = Dsl.create_circuit "Dead" in
  Dsl.module_ cb "Dead" (fun m ->
      let open Dsl in
      let x = input m "x" (Ty.UInt 4) in
      let out = output m "out" (Ty.UInt 4) in
      connect m out x;
      cover m "live" (x ==: lit 4 7);
      cover m "dead" ((x ==: lit 4 1) &: (x ==: lit 4 2)));
  let low = lower (Dsl.finalize cb) in
  let report = Bmc.check_covers ~bound:4 low in
  Alcotest.(check (list string)) "only the contradiction is dead" [ "dead" ]
    (Bmc.unreachable report);
  match List.assoc "live" report.Bmc.results with
  | Bmc.Reachable trace ->
      let b = Sic_sim.Interp.create low in
      Sic_sim.Replay.replay b trace;
      Alcotest.(check bool) "live trace hits cover" true
        (Sic_coverage.Counts.get (b.Sic_sim.Backend.counts ()) "live" > 0)
  | Bmc.Unreachable_within_bound -> Alcotest.fail "live must be reachable"

let test_bmc_sync_mem () =
  (* TLRAM has a synchronous-read memory: BMC must model the latched read
     address. Target: a get request returning nonzero data — needs a put
     then a get to the same address, at least ~4 cycles. *)
  let c = Sic_designs.Tlram.circuit ~addr_bits:2 () in
  let low = lower c in
  let low =
    Circuit.map_main low (fun m ->
        {
          m with
          Circuit.body =
            m.Circuit.body
            @ [
                Stmt.Cover
                  {
                    name = "nonzero_read";
                    pred =
                      Expr.and_
                        (Expr.and_ (Expr.Ref "io_d_valid") (Expr.Ref "io_d_ready"))
                        (Expr.and_
                           (Expr.Unop (Expr.Not, Expr.Bits (Expr.Ref "io_d_bits", 32, 32)))
                           (Expr.Unop (Expr.Orr, Expr.Bits (Expr.Ref "io_d_bits", 31, 0))));
                    info = Info.unknown;
                  };
              ];
        })
  in
  let report = Bmc.check_covers ~bound:8 ~covers:[ "nonzero_read" ] low in
  match List.assoc "nonzero_read" report.Bmc.results with
  | Bmc.Reachable trace ->
      (* the witness must replay identically on a software backend *)
      let b = Sic_sim.Compiled.create low in
      Sic_sim.Replay.replay b trace;
      Alcotest.(check int) "witness replays through the sync memory" 1
        (Sic_coverage.Counts.get (b.Sic_sim.Backend.counts ()) "nonzero_read")
  | Bmc.Unreachable_within_bound ->
      Alcotest.fail "a put-then-get sequence exists within 8 cycles"

(* the §5.5 experiment: the shared Cache RTL's write path is unreachable
   on the instruction cache but reachable on the data cache *)
let test_bmc_riscv_mini_icache () =
  let c = Sic_designs.Riscv_mini.circuit ~params:Sic_designs.Riscv_mini.formal_params () in
  let low = lower c in
  let low, _db = Sic_coverage.Fsm_coverage.instrument low in
  let covers =
    [
      "fsm_icache.state_state_WriteThrough";
      "fsm_dcache.state_state_Idle";
    ]
  in
  let report = Bmc.check_covers ~bound:6 ~covers low in
  Alcotest.(check (list string))
    "icache write path is dead (read-only instruction cache)"
    [ "fsm_icache.state_state_WriteThrough" ]
    (Bmc.unreachable report)

(* --- cone of influence ---------------------------------------------- *)

(* Per point, the cone-restricted check must give the whole circuit's
   verdict, and every cone witness must replay on the interpreter and fire
   its point. *)
let check_cone_matches_whole ?(reset_cycles = 1) low ~bound =
  let whole = Bmc.check_covers ~bound ~reset_cycles low in
  List.iter
    (fun (name, verdict) ->
      let r = Bmc.check_covers ~bound ~reset_cycles ~covers:[ name ] low in
      match (verdict, List.assoc name r.Bmc.results) with
      | Bmc.Unreachable_within_bound, Bmc.Unreachable_within_bound -> ()
      | Bmc.Reachable _, Bmc.Reachable trace ->
          let b = Sic_sim.Interp.create low in
          Sic_sim.Replay.replay b trace;
          Alcotest.(check bool)
            (name ^ ": cone witness fires under replay")
            true
            (Sic_coverage.Counts.get (b.Sic_sim.Backend.counts ()) name > 0)
      | _ -> Alcotest.failf "%s: cone verdict differs from the whole circuit's" name)
    whole.Bmc.results;
  whole

let line_instrumented c = lower (fst (Sic_coverage.Line_coverage.instrument c))

let test_cone_designs () =
  let uart = check_cone_matches_whole (line_instrumented (Sic_designs.Uart.circuit ())) ~bound:20 in
  Alcotest.(check int) "uart: 9 points unreachable at bound 20" 9
    (List.length (Bmc.unreachable uart));
  ignore (check_cone_matches_whole (line_instrumented (Sic_designs.I2c.circuit ())) ~bound:12)

(* [target] sees state through a written combinational memory, a written
   sync-read memory (latched address) and register [r], whose only source
   is its reset value [k]: with two reset cycles [r] captures the first
   [seed], with one it captures [k]'s power-on zero and [target] is dead.
   The unused sync port [sm.r2] still latches its address each cycle.
   Register [u] and input [noise] lie outside [target]'s cone. *)
let cone_circuit () =
  let cb = Dsl.create_circuit "Cone" in
  Dsl.module_ cb "Cone" (fun m ->
      let open Dsl in
      let addr = input m "addr" (Ty.UInt 2) in
      let wdata = input m "wdata" (Ty.UInt 4) in
      let we = input m "we" (Ty.UInt 1) in
      let seed = input m "seed" (Ty.UInt 4) in
      let noise = input m "noise" (Ty.UInt 4) in
      let cm = mem m "cm" (Ty.UInt 4) ~depth:4 ~readers:[ "r" ] ~writers:[ "w" ] in
      let sm =
        mem ~sync_read:true m "sm" (Ty.UInt 4) ~depth:4 ~readers:[ "r"; "r2" ] ~writers:[ "w" ]
      in
      when_ m we (fun () ->
          mem_write cm "w" ~addr ~data:wdata;
          mem_write sm "w" ~addr ~data:(wdata ^: lit 4 0xf));
      let crd = mem_read cm "r" addr and srd = mem_read sm "r" addr in
      let k = reg_ m "k" (Ty.UInt 4) in
      connect m k seed;
      let r = reg_init m "r" k in
      connect m r r;
      let u = reg_init m "u" (lit 4 0) in
      connect m u (u +: noise);
      connect m (output m "u_out" (Ty.UInt 4)) u;
      connect m (output m "r2_out" (Ty.UInt 4)) (mem_read sm "r2" (input m "addr2" (Ty.UInt 2)));
      cover m "target" ((crd ==: lit 4 3) &: (srd ==: lit 4 6) &: (r ==: lit 4 9));
      cover m "u_seen" (u ==: lit 4 5));
  lower (Dsl.finalize cb)

let test_cone_directed () =
  let low = cone_circuit () in
  let regs covers = (Sic_formal.Unroll.unroll ~covers low ~bound:2).Sic_formal.Unroll.regs_in_cone in
  Alcotest.(check int) "target's cone: r and k, not u" 2 (regs [ "target" ]);
  Alcotest.(check int) "u_seen's cone: u alone" 1 (regs [ "u_seen" ]);
  Alcotest.(check int) "no cover selected: no state" 0 (regs [ "no_such_point" ]);
  let whole = check_cone_matches_whole ~reset_cycles:2 low ~bound:8 in
  let target = Bmc.check_covers ~bound:8 ~reset_cycles:2 ~covers:[ "target" ] low in
  (match List.assoc "target" target.Bmc.results with
  | Bmc.Reachable trace ->
      let noise =
        Option.get (List.find_index (String.equal "noise") trace.Sic_sim.Replay.input_names)
      in
      Array.iter
        (fun frame ->
          Alcotest.(check bool) "an input outside the cone reads 0" true (Bv.is_zero frame.(noise)))
        trace.Sic_sim.Replay.frames
  | Bmc.Unreachable_within_bound -> Alcotest.fail "target needs two writes, two reads and seed = 9");
  Alcotest.(check (list string)) "two reset cycles: everything reachable" [] (Bmc.unreachable whole);
  let one = check_cone_matches_whole ~reset_cycles:1 low ~bound:8 in
  Alcotest.(check (list string)) "one reset cycle: r holds k's power-on zero" [ "target" ]
    (Bmc.unreachable one)

(* --- the search, pinned ------------------------------------------------ *)

(* Digests and counters recorded from the solver before its clauses and
   watch lists moved into one int arena. A change of data layout alone
   must keep every watch-list visit order, conflict, learnt clause and
   decision, and so every verdict, witness and search counter. *)
let digest s = Digest.to_hex (Digest.string s)

(* every point of [low] checked on its own, as a closure wave does: each
   report (with its solver line) and each witness *)
let single_point_digest low ~bound =
  Circuit.covers_of (Circuit.main low)
  |> List.map (fun p ->
         let r = Bmc.check_covers ~bound ~covers:[ p ] low in
         Bmc.render r
         ^ String.concat "" (List.map (fun (_, t) -> Sic_sim.Replay.to_string t) (Bmc.reachable r)))
  |> String.concat "" |> digest

(* the export after one single-point query, set up as [Bmc.check_covers]
   sets it up: literal order inside each clause records the watch swaps *)
let query_dimacs low ~bound point =
  let u = Sic_formal.Unroll.unroll ~covers:[ point ] low ~bound in
  let ctx = u.Sic_formal.Unroll.ctx in
  let solver = Gate.solver ctx in
  let tt = abs (Gate.tt ctx) in
  Sat.prefer solver
    (List.concat_map
       (fun (_, frames) ->
         Array.fold_left
           (fun acc bits ->
             Array.fold_left (fun acc l -> if abs l = tt then acc else abs l :: acc) acc bits)
           [] frames)
       u.Sic_formal.Unroll.input_bits);
  let g = Gate.fresh ctx in
  Gate.clause ctx (-g :: Array.to_list (List.assoc point u.Sic_formal.Unroll.cover_lits));
  ignore (Sat.solve ~assumptions:[ g ] solver);
  Sat.to_dimacs solver

let test_search_pinned () =
  let uart = line_instrumented (Sic_designs.Uart.circuit ()) in
  Alcotest.(check string) "uart bound 20, every point alone" "f948e0265384e3fdd28edeb2719333ee"
    (single_point_digest uart ~bound:20);
  Alcotest.(check string) "i2c bound 40, every point alone" "622f737269c31ed0aaa84be6c4de4eed"
    (single_point_digest (line_instrumented (Sic_designs.I2c.circuit ())) ~bound:40);
  let whole = Bmc.render (Bmc.check_covers ~bound:40 uart) in
  Alcotest.(check bool) "uart bound 40, whole circuit: solver line" true
    (contains ~needle:"\nsolver: conflicts=2383 decisions=24508 propagations=981826 vars=8283\n"
       whole);
  Alcotest.(check string) "uart bound 40, whole circuit: report" "12e617e9498272155c0f2018ee8dbaad" (digest whole);
  Alcotest.(check string) "uart query export after its solve" "034934e418da37ab3bd2f2b65541d3e3"
    (digest (query_dimacs uart ~bound:20 "rx.l_UartRx"))

let test_induction () =
  (* the Figure-7 FSM has a 2-bit state register with only 3 legal states;
     the illegal encoding 3 holds itself, so induction proves the cover
     eq(state, 3) dead forever at k = 1 *)
  let c, _ = fsm_circuit () in
  let c =
    Circuit.map_main c (fun m ->
        {
          m with
          Circuit.body =
            m.Circuit.body
            @ [
                Stmt.Cover
                  {
                    name = "illegal_state";
                    pred = Expr.eq_ (Expr.Ref "state") (Expr.u_lit ~width:2 3);
                    info = Info.unknown;
                  };
              ];
        })
  in
  let low = lower c in
  let results = Bmc.prove_unreachable ~k:1 ~covers:[ "illegal_state" ] low in
  (match List.assoc "illegal_state" results with
  | Bmc.Dead_forever -> ()
  | Bmc.Cex_within_bound _ -> Alcotest.fail "illegal state must not be reachable"
  | Bmc.Unknown -> Alcotest.fail "k=1 induction should prove the illegal state dead");
  (* a reachable cover is reported as a counterexample by the base case *)
  let c2, _ = fsm_circuit () in
  let low2, _ = Sic_coverage.Fsm_coverage.instrument (lower c2) in
  let results2 = Bmc.prove_unreachable ~k:4 ~covers:[ "fsm_state_state_C" ] low2 in
  match List.assoc "fsm_state_state_C" results2 with
  | Bmc.Cex_within_bound t ->
      Alcotest.(check bool) "cex is a real trace" true (Sic_sim.Replay.cycles t >= 3)
  | Bmc.Dead_forever | Bmc.Unknown -> Alcotest.fail "state C is reachable"

let test_induction_icache () =
  (* induction upgrades the §5.5 result: the icache write path is dead at
     EVERY cycle, not merely within the BMC bound *)
  let c = Sic_designs.Riscv_mini.circuit ~params:Sic_designs.Riscv_mini.formal_params () in
  let low = lower c in
  let low, _ = Sic_coverage.Fsm_coverage.instrument low in
  let results =
    Bmc.prove_unreachable ~k:1 ~covers:[ "fsm_icache.state_state_WriteThrough" ] low
  in
  match List.assoc "fsm_icache.state_state_WriteThrough" results with
  | Bmc.Dead_forever -> ()
  | Bmc.Cex_within_bound _ -> Alcotest.fail "icache write path must be dead"
  | Bmc.Unknown -> Alcotest.fail "k=1 induction should close the icache write path"

let tests =
  [
    Alcotest.test_case "sat: basics" `Quick test_sat_basics;
    Alcotest.test_case "k-induction: dead forever vs reachable" `Quick test_induction;
    Alcotest.test_case "k-induction: icache write path" `Slow test_induction_icache;
    Alcotest.test_case "sat: pigeonhole unsat" `Quick test_sat_pigeonhole;
    Alcotest.test_case "sat: assumptions" `Quick test_sat_assumptions;
    Alcotest.test_case "sat: incremental solving" `Quick test_sat_incremental;
    QCheck_alcotest.to_alcotest test_sat_random;
    QCheck_alcotest.to_alcotest test_gate_vs_eval;
    Alcotest.test_case "gates: exhaustive 4-bit adder/compare" `Quick test_gate_exhaustive;
    test_dimacs_roundtrip;
    test_add_clause_direct;
    Alcotest.test_case "dimacs: root units and unsat by units" `Quick test_dimacs_root_units;
    Alcotest.test_case "gates: structural hashing" `Quick test_gate_hashing;
    Alcotest.test_case "gates: hashing shrinks whole-circuit uart" `Quick test_gate_hashing_uart;
    Alcotest.test_case "bmc: fsm reachability" `Quick test_bmc_fsm;
    Alcotest.test_case "bmc: dead cover detection" `Quick test_bmc_unreachable;
    Alcotest.test_case "bmc: synchronous memory modelling" `Quick test_bmc_sync_mem;
    Alcotest.test_case "bmc: cone verdicts match the whole circuit (uart, i2c)" `Quick
      test_cone_designs;
    Alcotest.test_case "bmc: cone through memories and a reset value" `Quick test_cone_directed;
    Alcotest.test_case "bmc: search pinned on uart and i2c" `Quick test_search_pinned;
    Alcotest.test_case "bmc: riscv-mini icache write unreachable" `Slow
      test_bmc_riscv_mini_icache;
  ]
