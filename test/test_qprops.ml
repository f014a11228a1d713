(** Model-based and differential property tests:

    - the FIFO against an OCaml [Queue] model under random enq/deq traffic;
    - the bit-serial SERV core against native integer arithmetic;
    - randomly generated circuits run on all three software backends with
      random stimulus, checking outputs and cover counts agree. *)

module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
open Sic_ir
open Sic_sim
open Helpers

(* --- FIFO vs Queue model ---------------------------------------------- *)

let fifo_low = lazy (lower (Sic_designs.Fifo.circuit ~width:8 ~depth:4 ()))

let fifo_model_test =
  QCheck.Test.make ~count:60 ~name:"fifo agrees with a Queue model"
    QCheck.(pair small_int (list (pair bool (int_bound 255))))
    (fun (seed, ops) ->
      ignore seed;
      let b = Compiled.create (Lazy.force fifo_low) in
      Backend.reset_sequence b;
      let model = Queue.create () in
      let ok = ref true in
      List.iter
        (fun (do_deq, v) ->
          (* drive: always try to enqueue v, dequeue when do_deq *)
          b.Backend.poke "io_enq_valid" (Bv.one 1);
          b.Backend.poke "io_enq_bits" (Bv.of_int ~width:8 v);
          b.Backend.poke "io_deq_ready" (Bv.of_bool do_deq);
          (* sample the handshakes before the clock edge *)
          let enq_fire = Bv.to_bool (b.Backend.peek "io_enq_ready") in
          let deq_fire = do_deq && Bv.to_bool (b.Backend.peek "io_deq_valid") in
          let deq_bits = Bv.to_int_trunc (b.Backend.peek "io_deq_bits") in
          let count = Bv.to_int_trunc (b.Backend.peek "io_count") in
          if count <> Queue.length model then ok := false;
          if deq_fire then begin
            let expected = Queue.pop model in
            if deq_bits <> expected then ok := false
          end;
          if enq_fire then Queue.push v model;
          b.Backend.step 1)
        ops;
      !ok)

(* --- SERV vs native arithmetic ----------------------------------------- *)

let serv_low = lazy (lower (Sic_designs.Serv.circuit ()))

let serv_reference op a b =
  match op with
  | 0 -> (a + b) land 0xFFFFFFFF
  | 1 -> (a - b) land 0xFFFFFFFF
  | 2 -> a land b
  | 3 -> a lor b
  | _ -> a lxor b

let serv_model_test =
  QCheck.Test.make ~count:40 ~name:"serv agrees with native arithmetic"
    QCheck.(triple (int_bound 4) (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (op, a, v) ->
      let b = Compiled.create (Lazy.force serv_low) in
      Backend.reset_sequence b;
      b.Backend.poke "io_resp_ready" (Bv.one 1);
      b.Backend.poke "io_req_valid" (Bv.one 1);
      b.Backend.poke "io_req_bits"
        (Bv.logor ~width:67
           (Bv.shift_left ~width:67 (Bv.of_int ~width:67 v) 35)
           (Bv.logor ~width:67
              (Bv.shift_left ~width:67 (Bv.of_int ~width:67 a) 3)
              (Bv.of_int ~width:67 op)));
      b.Backend.step 1;
      b.Backend.poke "io_req_valid" (Bv.zero 1);
      let rec wait n =
        if n = 0 then false
        else if Bv.to_bool (b.Backend.peek "io_resp_valid") then
          Bv.to_int_trunc (b.Backend.peek "io_resp_bits") = serv_reference op a v
        else begin
          b.Backend.step 1;
          wait (n - 1)
        end
      in
      wait 100)

(* --- memory system vs a flat reference model ---------------------------- *)

let memsys_low = lazy (lower (Sic_designs.Memsys.circuit ()))

let memsys_model_test =
  let p = Sic_designs.Memsys.default_params in
  let aw = p.Sic_designs.Memsys.index_bits + p.Sic_designs.Memsys.tag_bits in
  QCheck.Test.make ~count:25 ~name:"memsys agrees with a flat memory model"
    QCheck.(small_list (triple bool (int_bound ((1 lsl 8) - 1)) (int_bound 0xFFFF)))
    (fun ops ->
      let b = Compiled.create (Lazy.force memsys_low) in
      Backend.reset_sequence b;
      b.Backend.poke "io_resp_ready" (Bv.one 1);
      let model = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun (write, addr, data) ->
          let addr = addr land ((1 lsl aw) - 1) in
          b.Backend.poke "io_req_valid" (Bv.one 1);
          b.Backend.poke "io_req_bits"
            (Bv.of_int ~width:(1 + aw + 32)
               ((data lsl (aw + 1)) lor ((if write then 1 else 0) lsl aw) lor addr));
          let rec accept k =
            if k = 0 then ok := false
            else if Bv.to_bool (b.Backend.peek "io_req_ready") then b.Backend.step 1
            else begin
              b.Backend.step 1;
              accept (k - 1)
            end
          in
          accept 100;
          b.Backend.poke "io_req_valid" (Bv.zero 1);
          let rec wait k =
            if k = 0 then ok := false
            else if Bv.to_bool (b.Backend.peek "io_resp_valid") then begin
              let v = Bv.to_int_trunc (b.Backend.peek "io_resp_bits") in
              if not write then begin
                let expected = Option.value ~default:0 (Hashtbl.find_opt model addr) in
                if v <> expected then ok := false
              end;
              b.Backend.step 1
            end
            else begin
              b.Backend.step 1;
              wait (k - 1)
            end
          in
          wait 100;
          if write then Hashtbl.replace model addr data)
        ops;
      !ok)

(* --- word-level (native-int) op semantics vs the Bv reference ----------- *)

(* Boundary widths around the int path's 62-bit applicability limit: 63/64
   force the wide fallback, so these cases pin the [Eval.Int.fits]
   classification itself; everything below exercises the masked-pattern
   arithmetic including both limb boundaries of the Bv representation. *)
let boundary_widths = [| 1; 4; 8; 31; 32; 62; 63; 64 |]

let gen_boundary_case =
  QCheck.Gen.(
    let* wa = oneofa boundary_widths in
    let* wb = oneofa boundary_widths in
    let* signed = bool in
    let* seeds = list_size (return 12) (int_bound ((1 lsl 30) - 1)) in
    return (wa, wb, signed, seeds))

let arb_boundary_case =
  QCheck.make
    ~print:(fun (wa, wb, signed, _) -> Printf.sprintf "wa=%d wb=%d signed=%b" wa wb signed)
    gen_boundary_case

let bv_of_seeds seeds w =
  let arr = Array.of_list seeds in
  let i = ref (-1) in
  Bv.random ~width:w (fun () ->
      incr i;
      arr.(!i mod Array.length arr))

let int_binop_matches_bv =
  QCheck.Test.make ~count:400 ~name:"Eval.Int.binop matches Eval.binop at boundary widths"
    arb_boundary_case
    (fun (wa, wb, signed, seeds) ->
      let a = bv_of_seeds seeds wa in
      let b = bv_of_seeds (List.rev seeds) wb in
      let ta = if signed then Ty.SInt wa else Ty.UInt wa in
      let tb = if signed then Ty.SInt wb else Ty.UInt wb in
      let agree op ta tb a b =
        let wr = Ty.width (Expr.binop_ty op ta tb) in
        (not (Eval.Int.fits (Ty.width ta) && Eval.Int.fits (Ty.width tb) && Eval.Int.fits wr))
        || Bv.to_int_trunc (Eval.binop op ~ta ~tb a b)
           = Eval.Int.binop op ~ta ~tb (Bv.to_int_trunc a) (Bv.to_int_trunc b)
      in
      let shifted op =
        (* dynamic shift amounts are unsigned and small *)
        let wbs = min wb 4 in
        agree op ta (Ty.UInt wbs) a (Bv.extend_u b wbs)
      in
      List.for_all
        (fun op -> agree op ta tb a b)
        [
          Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Rem; Expr.Lt; Expr.Leq; Expr.Gt;
          Expr.Geq; Expr.Eq; Expr.Neq; Expr.And; Expr.Or; Expr.Xor; Expr.Cat;
        ]
      && shifted Expr.Dshl && shifted Expr.Dshr)

let int_unop_matches_bv =
  QCheck.Test.make ~count:400 ~name:"Eval.Int unop/intop/bits match Eval at boundary widths"
    arb_boundary_case
    (fun (wa, _wb, signed, seeds) ->
      let a = bv_of_seeds seeds wa in
      let ta = if signed then Ty.SInt wa else Ty.UInt wa in
      let pat = Bv.to_int_trunc a in
      let wr_un op =
        match op with
        | Expr.Not | Expr.AsUInt | Expr.AsSInt -> wa
        | Expr.Andr | Expr.Orr | Expr.Xorr -> 1
        | Expr.Neg -> wa + 1
        | Expr.Cvt -> if signed then wa else wa + 1
      in
      let agree_un op =
        (not (Eval.Int.fits wa && Eval.Int.fits (wr_un op)))
        || Bv.to_int_trunc (Eval.unop op ~ta a) = Eval.Int.unop op ~ta pat
      in
      let wr_int op n =
        match op with
        | Expr.Pad -> max wa n
        | Expr.Shl -> wa + n
        | Expr.Shr -> max 1 (wa - n)
        | Expr.Head -> n
        | Expr.Tail -> wa - n
      in
      let agree_int op n =
        (not (Eval.Int.fits wa && Eval.Int.fits (wr_int op n)))
        || Bv.to_int_trunc (Eval.intop op n ~ta a) = Eval.Int.intop op n ~ta pat
      in
      let n_small = List.hd seeds mod 5 in
      let n_ht = 1 + (List.hd seeds mod max 1 (wa - 1)) in
      List.for_all agree_un
        [
          Expr.Not; Expr.Andr; Expr.Orr; Expr.Xorr; Expr.Neg; Expr.Cvt; Expr.AsUInt;
          Expr.AsSInt;
        ]
      && agree_int Expr.Pad (1 + (n_small * 16))
      && agree_int Expr.Shl n_small
      && agree_int Expr.Shr n_small
      && agree_int Expr.Shr (wa + 3)
      && agree_int Expr.Head n_ht
      && agree_int Expr.Tail n_ht
      &&
      let lo = List.hd seeds mod wa in
      let hi = lo + (List.nth seeds 1 mod (wa - lo)) in
      (not (Eval.Int.fits wa))
      || Bv.to_int_trunc (Eval.bits ~hi ~lo a) = Eval.Int.bits ~hi ~lo pat)

(* --- random circuits, differential across backends ---------------------- *)

(* Build a random low-form-ish circuit from random expressions over a few
   inputs and registers; Check validates it, backends must then agree. *)
let gen_random_circuit : Circuit.t QCheck.Gen.t =
  let open QCheck.Gen in
  let vars =
    [ ("in_a", Ty.UInt 8); ("in_b", Ty.UInt 4); ("in_c", Ty.UInt 1); ("r0", Ty.UInt 8); ("r1", Ty.UInt 3) ]
  in
  let* exprs = list_size (int_range 3 8) (gen_expr ~vars) in
  let* reg_drive0 = gen_expr ~vars in
  let* reg_drive1 = gen_expr ~vars in
  return
    (let cb = Dsl.create_circuit "Rand" in
     Dsl.module_ cb "Rand" (fun m ->
         let open Dsl in
         let _ = input m "in_a" (Ty.UInt 8) in
         let _ = input m "in_b" (Ty.UInt 4) in
         let _ = input m "in_c" (Ty.UInt 1) in
         let r0 = reg_init m "r0" (lit 8 0) in
         let r1 = reg_init m "r1" (lit 3 0) in
         (* registers fold random expressions back into state *)
         let ty_of n = List.assoc n vars in
         let drive reg e w =
           match Expr.type_of ty_of e with
           | exception Expr.Type_error _ -> ()
           | ty ->
               ignore ty;
               connect m reg (resize (as_uint { expr = e; ty = Expr.type_of ty_of e }) w)
         in
         drive r0 reg_drive0 8;
         drive r1 reg_drive1 3;
         (* outputs observe every expression (xor-folded to 16 bits) *)
         let out = output m "out" (Ty.UInt 16) in
         let folded =
           List.fold_left
             (fun acc e ->
               match Expr.type_of ty_of e with
               | exception Expr.Type_error _ -> acc
               | ty -> acc ^: resize (as_uint { expr = e; ty }) 16)
             (lit 16 0) exprs
         in
         connect m out folded;
         (* and a cover watching a random condition *)
         (match exprs with
         | e :: _ -> (
             match Expr.type_of ty_of e with
             | exception Expr.Type_error _ -> ()
             | ty -> cover m "watch" (orr_s { expr = e; ty }))
         | [] -> ()));
     Dsl.finalize cb)

let random_circuit_differential =
  QCheck.Test.make ~count:60 ~name:"random circuits: three backends agree"
    (QCheck.make ~print:(fun c -> Printer.circuit_to_string c) gen_random_circuit)
    (fun c ->
      match lower c with
      | exception _ -> QCheck.assume_fail ()
      | low ->
          let run create = random_drive (create low) ~seed:7 ~cycles:30 in
          let o1, c1 = run Interp.create in
          let o2, c2 = run (fun c -> Compiled.create c) in
          let o3, c3 = run Essent.create in
          String.equal o1 o2 && String.equal o2 o3 && Counts.equal c1 c2 && Counts.equal c2 c3)

(* --- restore: back to power-on, exactly --------------------------------- *)

(* Random stimulus with no reset: every port is peeked before each edge,
   so stale registers, memories or inputs left by an earlier run show up
   in the observations, and the counts, cycles and stop flag close it. *)
let observe_run (b : Backend.t) ~seed ~cycles =
  let bits = Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create seed) in
  let ports = (Circuit.main b.Backend.circuit).Circuit.ports in
  let obs = Buffer.create 256 in
  for _ = 1 to cycles do
    List.iter
      (fun (p : Circuit.port) ->
        Buffer.add_string obs (Bv.to_hex_string (b.Backend.peek p.Circuit.port_name));
        Buffer.add_char obs ' ')
      ports;
    Buffer.add_char obs (if b.Backend.finished () then '!' else '.');
    Backend.random_stimulus ~bits ~cycles:1 b
  done;
  List.iter
    (fun (p : Circuit.port) ->
      Buffer.add_string obs (Bv.to_hex_string (b.Backend.peek p.Circuit.port_name)))
    ports;
  (Buffer.contents obs, b.Backend.counts (), b.Backend.cycles (), b.Backend.finished ())

(* run A, restore, run B on one engine = run B alone on a fresh engine *)
let restore_matches_fresh low ~seed_a ~seed_b ~cycles =
  List.for_all
    (fun (_, create) ->
      let b = create low in
      ignore (observe_run b ~seed:seed_a ~cycles);
      b.Backend.restore ();
      let o1, c1, n1, f1 = observe_run b ~seed:seed_b ~cycles in
      let o2, c2, n2, f2 = observe_run (create low) ~seed:seed_b ~cycles in
      String.equal o1 o2 && Counts.equal c1 c2 && n1 = n2 && f1 = f2)
    Helpers.backends

let restore_exactness =
  QCheck.Test.make ~count:40 ~name:"random circuits: a restored engine equals a fresh one"
    (QCheck.pair
       (QCheck.make ~print:(fun c -> Printer.circuit_to_string c) gen_random_circuit)
       QCheck.(pair small_nat small_nat))
    (fun (c, (seed_a, seed_b)) ->
      match lower c with
      | exception _ -> QCheck.assume_fail ()
      | low -> restore_matches_fresh low ~seed_a ~seed_b:(seed_b + 1000) ~cycles:20)

(* The state random circuits lack: memories with a power-on image (one
   combinational, one sync-read with its latched address), a register
   wider than 62 bits, a register without reset, a cover-values point and
   a stop. *)
let restore_directed () =
  let cb = Dsl.create_circuit "Restore" in
  Dsl.module_ cb "Restore" (fun m ->
      let open Dsl in
      let addr = input m "addr" (Ty.UInt 3) in
      let wdata = input m "wdata" (Ty.UInt 8) in
      let we = input m "we" (Ty.UInt 1) in
      let salt = input m "salt" (Ty.UInt 40) in
      let comb = mem m "comb" (Ty.UInt 8) ~depth:8 ~readers:[ "r" ] ~writers:[ "w" ] in
      let sync = mem ~sync_read:true m "sync" (Ty.UInt 8) ~depth:8 ~readers:[ "r" ] ~writers:[ "w" ] in
      when_ m we (fun () ->
          mem_write comb "w" ~addr ~data:wdata;
          mem_write sync "w" ~addr ~data:(wdata ^: lit 8 0xff));
      let rd = mem_read comb "r" addr and srd = mem_read sync "r" addr in
      let wide = reg_init m "wide" (lit 100 0) in
      connect m wide (resize (cat_s (wide ^: resize salt 100) (rd ^: srd)) 100);
      let nores = reg_ m "nores" (Ty.UInt 8) in
      connect m nores (resize (nores +: rd) 8);
      connect m (output m "rd" (Ty.UInt 8)) rd;
      connect m (output m "srd" (Ty.UInt 8)) srd;
      connect m (output m "wide_out" (Ty.UInt 100)) wide;
      connect m (output m "nores_out" (Ty.UInt 8)) nores;
      cover_values m "cv_rd" (bits_s rd ~hi:2 ~lo:0);
      cover m "init_seen" (rd ==: lit 8 0x5a);
      stop m "halt" (andr_s addr &: we) 0);
  let with_init (s : Stmt.t) =
    match s with
    | Stmt.Mem { mem; info } ->
        let init = Array.init 8 (fun i -> Bv.of_int ~width:8 ((i * 37) + 0x5a)) in
        Stmt.Mem { mem = { mem with Stmt.mem_init = Some init }; info }
    | s -> s
  in
  let c = Dsl.finalize cb in
  let c =
    {
      c with
      Circuit.modules =
        List.map
          (fun (md : Circuit.modul) -> { md with Circuit.body = List.map with_init md.Circuit.body })
          c.Circuit.modules;
    }
  in
  let low = lower c in
  List.iter
    (fun (seed_a, seed_b) ->
      Alcotest.(check bool)
        (Printf.sprintf "seeds %d/%d: restored = fresh on every backend" seed_a seed_b)
        true
        (restore_matches_fresh low ~seed_a ~seed_b ~cycles:40))
    [ (1, 2); (3, 4); (5, 5) ]

(* --- lane engine: per-lane counts vs solo scalar runs ------------------- *)

(* A width-parametrized design exercising every lane storage class at the
   boundary widths: packed planes (w = 1 signals and covers), strided
   narrow slots (w <= 62) and per-lane Bv rows (w > 62). *)
let lane_width_circuit w =
  let cb = Dsl.create_circuit "LaneW" in
  Dsl.module_ cb "LaneW" (fun m ->
      let open Dsl in
      let a = input m "in_a" (Ty.UInt w) in
      let b = input m "in_b" (Ty.UInt w) in
      let c = input m "in_c" (Ty.UInt 1) in
      let r = reg_init m "acc" (lit w 0) in
      connect m r (resize (mux_s c (a +: b) (a ^: r)) w);
      let out = output m "out" (Ty.UInt w) in
      connect m out r;
      cover m "gt" (a >: b);
      cover m "eq" (a ==: b);
      cover m "bit" c;
      cover m "parity" (xorr_s r));
  Dsl.finalize cb

(* The exactness oracle of the bit-parallel engine: counts are a property
   of the value stream, so lane [l] driven by stream [l] must be
   [Counts.equal] to a solo scalar run over the very same stream — checked
   against both scheduler modes (compiled = plain, essent = activity). *)
let lanes_per_lane_differential =
  QCheck.Test.make ~count:25 ~name:"lanes: per-lane counts equal solo runs"
    QCheck.(pair (oneofa [| 1; 31; 62; 63; 64 |]) small_int)
    (fun (w, seed) ->
      let low = lower (lane_width_circuit w) in
      let k = 5 and cycles = 30 in
      let stream l = Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.split (Sic_fuzz.Rng.create seed) l) in
      let lt = Sic_sim.Lanes.build ~lanes:k low in
      Backend.reset_sequence (Sic_sim.Lanes.to_backend ~name:"lanes" lt);
      Sic_sim.Lanes.run_random lt ~streams:(Array.init k stream) ~cycles;
      let solo create l =
        let b = create low in
        Backend.reset_sequence b;
        Backend.random_stimulus ~bits:(stream l) ~cycles b;
        b.Backend.counts ()
      in
      let ok = ref true in
      for l = 0 to k - 1 do
        let lc = Sic_sim.Lanes.lane_counts lt l in
        if not (Counts.equal lc (solo (fun c -> Compiled.create c) l)) then
          ok := false;
        if not (Counts.equal lc (solo Essent.create l)) then ok := false
      done;
      !ok)

(* the parser also round-trips random circuits *)
let random_circuit_roundtrip =
  QCheck.Test.make ~count:60 ~name:"random circuits: print/parse round-trip"
    (QCheck.make ~print:(fun c -> Printer.circuit_to_string c) gen_random_circuit)
    (fun c ->
      let s1 = Printer.circuit_to_string c in
      let c2 = Parser.parse_circuit s1 in
      String.equal s1 (Printer.circuit_to_string c2))

(* --- when-lowering vs a direct reference executor ----------------------- *)

(* A tiny oracle that executes HIGH-FORM semantics directly: statements in
   order, last connect under a true path-condition wins, registers update
   at the edge. Independent of lower_whens — so agreement is real
   evidence. Supports the subset the generator below emits. *)
module Oracle = struct
  open Sic_ir

  type t = {
    body : Stmt.t list;
    ty_of : string -> Ty.t;
    values : (string, Bv.t) Hashtbl.t;  (* inputs + current regs *)
    regs : (string * (Expr.t * Expr.t) option) list;
  }

  let create (c : Circuit.t) =
    let m = Circuit.main c in
    let env = Circuit.build_env m in
    let regs = ref [] in
    Stmt.iter
      (fun s ->
        match s with
        | Stmt.Reg { name; reset; _ } -> regs := (name, reset) :: !regs
        | _ -> ())
      m.Circuit.body;
    let t =
      {
        body = m.Circuit.body;
        ty_of = Circuit.lookup_of env;
        values = Hashtbl.create 32;
        regs = !regs;
      }
    in
    List.iter
      (fun (r, _) -> Hashtbl.replace t.values r (Bv.zero (Ty.width (t.ty_of r))))
      t.regs;
    t

  (* one settling pass: evaluate the statement list sequentially into a
     sink table; nodes are bound as seen; references to sinks read the
     FINAL sink value, so we iterate to a fixpoint (bounded) *)
  let settle t =
    let sinks : (string, Bv.t) Hashtbl.t = Hashtbl.create 32 in
    let nodes : (string, Bv.t) Hashtbl.t = Hashtbl.create 32 in
    let is_reg n = List.mem_assoc n t.regs in
    let lookup n =
      match Hashtbl.find_opt nodes n with
      | Some v -> v
      | None ->
          (* a connect to a register sets its NEXT value; reads see the
             current state — wires read their final connected value *)
          if is_reg n then Hashtbl.find t.values n
          else (
            match Hashtbl.find_opt sinks n with
            | Some v -> v
            | None -> (
                match Hashtbl.find_opt t.values n with
                | Some v -> v
                | None -> Bv.zero (Ty.width (t.ty_of n))))
    in
    let eval e = Eval.eval ~ty_of:t.ty_of ~value_of:lookup e in
    let rec exec stmts =
      List.iter
        (fun (s : Stmt.t) ->
          match s with
          | Stmt.Node { name; expr; _ } -> Hashtbl.replace nodes name (eval expr)
          | Stmt.Connect { loc; expr; _ } -> Hashtbl.replace sinks loc (eval expr)
          | Stmt.When { cond; then_; else_; _ } ->
              if Bv.to_bool (eval cond) then exec then_ else exec else_
          | _ -> ())
        stmts
    in
    (* iterate: wires read through sinks may depend on later connects *)
    for _ = 1 to 4 do
      Hashtbl.reset nodes;
      exec t.body
    done;
    (sinks, lookup)

  let peek t name =
    let _, lookup = settle t in
    lookup name

  let step t =
    let sinks, lookup = settle t in
    let next =
      List.map
        (fun (r, reset) ->
          let base = match Hashtbl.find_opt sinks r with Some v -> v | None -> lookup r in
          let v =
            match reset with
            | Some (rst, init) ->
                if Bv.to_bool (Eval.eval ~ty_of:t.ty_of ~value_of:lookup rst) then
                  Eval.eval ~ty_of:t.ty_of ~value_of:lookup init
                else base
            | None -> base
          in
          (r, v))
        t.regs
    in
    List.iter (fun (r, v) -> Hashtbl.replace t.values r v) next

  let poke t n v = Hashtbl.replace t.values n v
end

(* random when-trees over a few inputs, one register, one output *)
let gen_when_circuit : Sic_ir.Circuit.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Sic_ir in
  let rec gen_block depth m (sigs : Dsl.signal list) (sinks : Dsl.signal list) st =
    let n_stmts = 1 + int_bound 3 st in
    for _ = 1 to n_stmts do
      match if depth = 0 then 0 else int_bound 3 st with
      | 0 | 1 ->
          (* connect a random sink to a random small expression *)
          let sink = List.nth sinks (int_bound (List.length sinks - 1) st) in
          let a = List.nth sigs (int_bound (List.length sigs - 1) st) in
          let b = List.nth sigs (int_bound (List.length sigs - 1) st) in
          let open Dsl in
          let e =
            match int_bound 3 st with
            | 0 -> resize (a +: b) 4
            | 1 -> resize (a ^: b) 4
            | 2 -> resize (mux_s (orr_s a) a b) 4
            | _ -> resize a 4
          in
          Dsl.connect m sink e
      | 2 ->
          (* nested when *)
          let c = List.nth sigs (int_bound (List.length sigs - 1) st) in
          Dsl.when_else m (Dsl.orr_s c)
            (fun () -> gen_block (depth - 1) m sigs sinks st)
            (fun () -> gen_block (depth - 1) m sigs sinks st)
      | _ ->
          (* a new node joins the signal pool for later statements *)
          let a = List.nth sigs (int_bound (List.length sigs - 1) st) in
          ignore (Dsl.node m "n" (Dsl.resize (Dsl.not_s a) 4))
    done
  in
  fun st ->
    let cb = Dsl.create_circuit "WhenRand" in
    Dsl.module_ cb "WhenRand" (fun m ->
        let open Dsl in
        let i0 = input m "i0" (Ty.UInt 4) in
        let i1 = input m "i1" (Ty.UInt 4) in
        let r = reg_init m "r" (lit 4 0) in
        let w = wire m "w" (Ty.UInt 4) in
        let out = output m "out" (Ty.UInt 4) in
        connect m w (i0 ^: resize i1 4);
        connect m out r;
        (* the expression pool excludes sinks, so no combinational cycles *)
        gen_block 2 m [ i0; i1; r ] [ r; w; out ] st;
        (* out must also observe w so nothing is trivially dead *)
        when_ m (orr_s w) (fun () -> connect m out (resize (w +: r) 4)));
    Dsl.finalize cb

let lower_whens_vs_oracle =
  QCheck.Test.make ~count:120 ~name:"lower-whens agrees with a direct executor"
    (QCheck.make ~print:(fun c -> Sic_ir.Printer.circuit_to_string c) gen_when_circuit)
    (fun c ->
      let low = lower c in
      let b = Compiled.create low in
      let oracle = Oracle.create c in
      let rng = Sic_fuzz.Rng.create 13 in
      let ok = ref true in
      for _ = 1 to 25 do
        let v0 = Bv.of_int ~width:4 (Sic_fuzz.Rng.int rng 16) in
        let v1 = Bv.of_int ~width:4 (Sic_fuzz.Rng.int rng 16) in
        b.Backend.poke "i0" v0;
        b.Backend.poke "i1" v1;
        Oracle.poke oracle "i0" v0;
        Oracle.poke oracle "i1" v1;
        b.Backend.poke "reset" (Bv.zero 1);
        Oracle.poke oracle "reset" (Bv.zero 1);
        if not (Bv.equal_value (b.Backend.peek "out") (Oracle.peek oracle "out")) then
          ok := false;
        b.Backend.step 1;
        Oracle.step oracle
      done;
      !ok)

let tests =
  [
    QCheck_alcotest.to_alcotest lower_whens_vs_oracle;
    QCheck_alcotest.to_alcotest int_binop_matches_bv;
    QCheck_alcotest.to_alcotest int_unop_matches_bv;
    QCheck_alcotest.to_alcotest fifo_model_test;
    QCheck_alcotest.to_alcotest serv_model_test;
    QCheck_alcotest.to_alcotest memsys_model_test;
    QCheck_alcotest.to_alcotest random_circuit_differential;
    QCheck_alcotest.to_alcotest restore_exactness;
    Alcotest.test_case "restore: memories, wide and unreset registers, cover-values" `Quick
      restore_directed;
    QCheck_alcotest.to_alcotest lanes_per_lane_differential;
    QCheck_alcotest.to_alcotest random_circuit_roundtrip;
  ]
