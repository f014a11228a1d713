(** Shared helpers for the test suite. *)

module Bv = Sic_bv.Bv
open Sic_ir

let bv = Alcotest.testable Bv.pp Bv.equal

let check_bv = Alcotest.check bv

(* A GCD unit with a decoupled input pair and a decoupled output — the
   canonical Chisel example, exercising whens, decoupled annotations and an
   FSM-free control register. *)
let gcd_circuit () =
  let cb = Dsl.create_circuit "GCD" in
  Dsl.module_ cb "GCD" (fun m ->
      let open Dsl in
      let in_ = decoupled_input ~loc:__POS__ m "io_in" (Ty.UInt 32) in
      let out = decoupled_output ~loc:__POS__ m "io_out" (Ty.UInt 16) in
      let x = reg_ ~loc:__POS__ m "x" (Ty.UInt 16) in
      let y = reg_ ~loc:__POS__ m "y" (Ty.UInt 16) in
      let busy = reg_init ~loc:__POS__ m "busy" false_ in
      connect m in_.ready (not_s busy);
      connect m out.valid (busy &: (y ==: lit 16 0));
      connect m out.bits x;
      when_ ~loc:__POS__ m (fire in_)
        (fun () ->
          connect m x (bits_s in_.bits ~hi:31 ~lo:16);
          connect m y (bits_s in_.bits ~hi:15 ~lo:0);
          connect m busy true_);
      when_ ~loc:__POS__ m (busy &: (y <>: lit 16 0))
        (fun () ->
          when_else ~loc:__POS__ m (x >: y)
            (fun () -> connect m x (x -: y))
            (fun () -> connect m y (y -: x)));
      when_ ~loc:__POS__ m (fire out) (fun () -> connect m busy false_));
  Dsl.finalize cb

(* Drive the GCD circuit to compute gcd(a, b) on a backend. *)
let run_gcd (b : Sic_sim.Backend.t) a bb =
  let open Sic_sim in
  Backend.reset_sequence b;
  b.Backend.poke "io_in_valid" (Bv.one 1);
  b.Backend.poke "io_in_bits" (Bv.of_int ~width:32 ((a lsl 16) lor bb));
  b.Backend.poke "io_out_ready" (Bv.one 1);
  b.Backend.step 1;
  b.Backend.poke "io_in_valid" (Bv.zero 1);
  let rec wait n =
    if n = 0 then Alcotest.fail "gcd did not finish"
    else if Bv.to_bool (b.Backend.peek "io_out_valid") then begin
      let result = Bv.to_int_trunc (b.Backend.peek "io_out_bits") in
      (* step once more so the output-fire cycle is sampled by covers *)
      b.Backend.step 1;
      result
    end
    else begin
      b.Backend.step 1;
      wait (n - 1)
    end
  in
  wait 1000

(* A two-level hierarchy: an adder child instantiated twice. *)
let hierarchy_circuit () =
  let cb = Dsl.create_circuit "Top" in
  Dsl.module_ cb "Adder" (fun m ->
      let open Dsl in
      let a = input m "a" (Ty.UInt 8) in
      let b = input m "b" (Ty.UInt 8) in
      let sum = output m "sum" (Ty.UInt 8) in
      connect m sum (a +: b));
  Dsl.module_ cb "Top" (fun m ->
      let open Dsl in
      let a = input m "in_a" (Ty.UInt 8) in
      let b = input m "in_b" (Ty.UInt 8) in
      let c = input m "in_c" (Ty.UInt 8) in
      let out = output m "out" (Ty.UInt 8) in
      connect m (instance m "add0" "Adder" "a") a;
      connect m (instance m "add0" "Adder" "b") b;
      connect m (instance m "add1" "Adder" "a") (instance m "add0" "Adder" "sum");
      connect m (instance m "add1" "Adder" "b") c;
      connect m out (instance m "add1" "Adder" "sum"));
  Dsl.finalize cb

(* A 3-state FSM matching the paper's Figure 7 example:
   A --in--> A, A --!in--> B; B --in--> B, B --!in--> C; C --> C. *)
let fsm_circuit () =
  let cb = Dsl.create_circuit "Fsm" in
  let s = Dsl.enum cb "S" [ "A"; "B"; "C" ] in
  Dsl.module_ cb "Fsm" (fun m ->
      let open Dsl in
      let in_ = input ~loc:__POS__ m "in" (Ty.UInt 1) in
      let out = output ~loc:__POS__ m "out" (Ty.UInt 2) in
      let state = reg_enum ~loc:__POS__ m "state" s "A" in
      switch ~loc:__POS__ m state
        [
          (enum_value s "A", fun () -> connect m state (mux_s in_ (enum_value s "A") (enum_value s "B")));
          ( enum_value s "B",
            fun () ->
              when_else ~loc:__POS__ m in_
                (fun () -> connect m state (enum_value s "B"))
                (fun () -> connect m state (enum_value s "C")) );
        ];
      connect m out state);
  (Dsl.finalize cb, s)

let lower = Sic_passes.Compile.lower

(* Drive a backend with deterministic pseudo-random inputs for [cycles]
   cycles after one reset cycle, observing every output each cycle:
   returns the observations and the final counts, which every backend
   must agree on. *)
let random_drive (b : Sic_sim.Backend.t) ~seed ~cycles =
  let open Sic_sim in
  let bits = Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create seed) in
  let inputs = Backend.data_inputs b and outputs = Backend.outputs b in
  Backend.reset_sequence b;
  let observations = Buffer.create 256 in
  for _ = 1 to cycles do
    List.iter (fun (n, ty) -> b.Backend.poke n (Bv.random ~width:(Ty.width ty) bits)) inputs;
    List.iter
      (fun (n, _) ->
        Buffer.add_string observations (Bv.to_hex_string (b.Backend.peek n));
        Buffer.add_char observations ' ')
      outputs;
    (* stop behaviour is part of the observation: the first cycle at which
       [finished] flips must match across backends *)
    Buffer.add_char observations (if b.Backend.finished () then '!' else '.');
    b.Backend.step 1
  done;
  Alcotest.(check int) "cycles () counts the steps taken" (cycles + 1) (b.Backend.cycles ());
  (Buffer.contents observations, b.Backend.counts ())

(* a directory name unique to this process and call, under the temporary
   directory, so a run from any working directory leaves the tree clean *)
let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Random typed expression generator (for differential tests between    *)
(* the evaluator, the constant folder and the bit-blaster).             *)
(* ------------------------------------------------------------------ *)

let gen_expr ~(vars : (string * Ty.t) list) : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let lit_of_kind signed st =
    let w = 1 + int_bound 7 st in
    if signed then Expr.SIntLit (Bv.random ~width:w (fun () -> int_bound (1 lsl 30 - 1) st))
    else Expr.UIntLit (Bv.random ~width:w (fun () -> int_bound (1 lsl 30 - 1) st))
  in
  let var_of_kind signed st =
    match List.filter (fun (_, t) -> Ty.is_signed t = signed) vars with
    | [] -> lit_of_kind signed st
    | cands ->
        let n, _ = List.nth cands (int_bound (List.length cands - 1) st) in
        Expr.Ref n
  in
  let ty_of_lookup n = List.assoc n vars in
  (* generators indexed by (depth, want_signed) *)
  let rec gen depth signed st =
    if depth = 0 then
      if QCheck.Gen.bool st then var_of_kind signed st else lit_of_kind signed st
    else
      let sub s = gen (depth - 1) s st in
      let unsigned_ops () =
        match int_bound 10 st with
        | 0 -> Expr.Unop (Expr.Not, sub signed)
        | 1 -> Expr.Unop (Expr.Orr, sub (QCheck.Gen.bool st))
        | 2 -> Expr.Binop (Expr.Cat, sub (QCheck.Gen.bool st), sub (QCheck.Gen.bool st))
        | 3 ->
            let a = sub signed and b = sub signed in
            Expr.Binop (Expr.Eq, a, b)
        | 4 ->
            let a = sub false in
            let w = Ty.width (Expr.type_of ty_of_lookup a) in
            let hi = int_bound (w - 1) st in
            let lo = int_bound hi st in
            Expr.Bits (a, hi, lo)
        | 5 -> Expr.Binop (Expr.And, sub false, sub false)
        | 6 -> Expr.Binop (Expr.Or, sub false, sub false)
        | 7 -> Expr.Binop (Expr.Xor, sub false, sub false)
        | 8 -> Expr.Binop (Expr.Lt, sub false, sub false)
        | 9 -> Expr.Unop (Expr.AsUInt, sub true)
        | _ -> Expr.Binop (Expr.Geq, sub true, sub true)
      in
      let signed_ops () =
        match int_bound 4 st with
        | 0 -> Expr.Unop (Expr.Neg, sub (QCheck.Gen.bool st))
        | 1 -> Expr.Unop (Expr.Cvt, sub (QCheck.Gen.bool st))
        | 2 -> Expr.Binop (Expr.Add, sub true, sub true)
        | 3 -> Expr.Binop (Expr.Sub, sub true, sub true)
        | _ -> Expr.Unop (Expr.AsSInt, sub false)
      in
      match int_bound 5 st with
      | 0 ->
          (* mux: arms padded to a common type *)
          let sel = Expr.Unop (Expr.Orr, sub false) in
          let a = sub signed and b = sub signed in
          let ta = Expr.type_of ty_of_lookup a and tb = Expr.type_of ty_of_lookup b in
          let w = max (Ty.width ta) (Ty.width tb) in
          Expr.Mux (sel, Expr.Intop (Expr.Pad, w, a), Expr.Intop (Expr.Pad, w, b))
      | 1 ->
          let a = sub signed in
          let n = int_bound 4 st in
          Expr.Intop ((if QCheck.Gen.bool st then Expr.Shl else Expr.Shr), n, a)
      | 2 ->
          let a = sub signed in
          Expr.Intop (Expr.Pad, 1 + int_bound 12 st, a)
      | 3 | 4 -> if signed then signed_ops () else unsigned_ops ()
      | _ ->
          if signed then Expr.Binop (Expr.Mul, sub true, sub true)
          else Expr.Binop (Expr.Add, sub false, sub false)
  in
  fun st -> gen (1 + int_bound 3 st) false st

(* random input valuation for [vars] *)
let gen_inputs ~(vars : (string * Ty.t) list) : (string * Bv.t) list QCheck.Gen.t =
  let open QCheck.Gen in
  fun st ->
    List.map
      (fun (n, t) ->
        (n, Bv.random ~width:(Ty.width t) (fun () -> int_bound ((1 lsl 30) - 1) st)))
      vars

let standard_vars : (string * Ty.t) list =
  [
    ("u1", Ty.UInt 1);
    ("u3", Ty.UInt 3);
    ("u8", Ty.UInt 8);
    ("u17", Ty.UInt 17);
    ("u40", Ty.UInt 40);
    ("s4", Ty.SInt 4);
    ("s9", Ty.SInt 9);
    ("s33", Ty.SInt 33);
  ]

(* Every software backend: the interpreter (the differential oracle), the
   word-level engine (plain and activity-driven via Essent), and the
   bit-parallel lane engine's lockstep facade (3 lanes keeps the
   packed-plane, strided and wide storage classes all honest without
   slowing the suite). *)
let backends : (string * (Circuit.t -> Sic_sim.Backend.t)) list =
  [
    ("interp", Sic_sim.Interp.create);
    ("compiled", fun c -> Sic_sim.Compiled.create c);
    ("essent", Sic_sim.Essent.create);
    ("lanes", fun c -> Sic_sim.Lanes.create ~lanes:3 c);
  ]
