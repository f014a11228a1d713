(** Cross-backend differential tests: every software simulator (interpreter,
    word-level engine plain and activity-driven, lane engine in lockstep)
    must agree on every peeked output, every cover count
    and every stop cycle under randomized stimulus, for several designs.
    Plus VCD and replay round-trips, the builtin-line audit and the
    word-level engine's zero-allocation guarantee. *)

module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
open Helpers
open Sic_sim

let designs_for_diff () =
  [
    ("gcd", gcd_circuit ());
    ("fsm", fst (fsm_circuit ()));
    ("fifo", Sic_designs.Fifo.circuit ());
    ("i2c", Sic_designs.I2c.circuit ());
    ("serv", Sic_designs.Serv.circuit ());
    ("tlram", Sic_designs.Tlram.circuit ~addr_bits:4 ());
    ("neuroproc", Sic_designs.Neuroproc.circuit ~neurons:4 ());
    ("uart", Sic_designs.Uart.circuit ());
    ("arbiter", Sic_designs.Arbiter.circuit ());
    ("matmul", Sic_designs.Matmul.circuit ~n:2 ());
    ("memsys", Sic_designs.Memsys.circuit ());
  ]

let test_cross_backend_equivalence () =
  List.iter
    (fun (name, c) ->
      (* instrument with line coverage so counts are also compared *)
      let c, _ = Sic_coverage.Line_coverage.instrument c in
      let low = lower c in
      let runs =
        List.map
          (fun (bname, create) ->
            let b = create low in
            let obs, counts = random_drive b ~seed:17 ~cycles:200 in
            (bname, obs, counts))
          backends
      in
      match runs with
      | (_, obs0, counts0) :: rest ->
          List.iter
            (fun (bname, obs, counts) ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s outputs == interp outputs" name bname)
                obs0 obs;
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s counts == interp counts" name bname)
                true (Counts.equal counts0 counts))
            rest
      | [] -> ())
    (designs_for_diff ())

let test_vcd_roundtrip () =
  let wave_signals = [ ("a", 1); ("b", 8); ("wide", 40) ] in
  let rng = Sic_fuzz.Rng.create 5 in
  let frames =
    List.init 20 (fun _ ->
        List.map
          (fun (n, w) -> (n, Bv.random ~width:w (Sic_fuzz.Rng.bits30 rng)))
          wave_signals)
  in
  let buf = Buffer.create 256 in
  let oc_path = Filename.temp_file "sic_test" ".vcd" in
  let oc = open_out oc_path in
  let w = Vcd.create_writer oc ~scope:"t" wave_signals in
  List.iter (fun f -> Vcd.sample w f) frames;
  close_out oc;
  ignore buf;
  let wave = Vcd.read_file oc_path in
  Sys.remove oc_path;
  Alcotest.(check int) "frame count" (List.length frames) (Array.length wave.Vcd.frames);
  List.iteri
    (fun i frame ->
      List.iter
        (fun (n, v) ->
          let got = List.assoc n wave.Vcd.frames.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "frame %d signal %s" i n)
            true (Bv.equal_value v got))
        frame)
    frames

let test_record_replay () =
  let c, _ = Sic_coverage.Line_coverage.instrument (gcd_circuit ()) in
  let low = lower c in
  let b = Compiled.create low in
  (* record a run *)
  let rng = Sic_fuzz.Rng.create 23 in
  let trace =
    Replay.record b ~cycles:100 (fun b _cycle ->
        b.Backend.poke "reset" (Bv.zero 1);
        List.iter
          (fun (n, ty) ->
            b.Backend.poke n (Bv.random ~width:(Sic_ir.Ty.width ty) (Sic_fuzz.Rng.bits30 rng)))
          (Backend.data_inputs b))
  in
  let reference = b.Backend.counts () in
  (* replay into a fresh instance of another backend: identical counts *)
  let b2 = Interp.create low in
  Replay.replay b2 trace;
  Alcotest.(check bool) "replayed counts equal recorded" true
    (Counts.equal reference (b2.Backend.counts ()));
  (* through a VCD file *)
  let path = Filename.temp_file "sic_replay" ".vcd" in
  Replay.save_vcd path b trace;
  let trace2 = Replay.load_vcd path in
  Sys.remove path;
  let b3 = Essent.create low in
  Replay.replay b3 trace2;
  Alcotest.(check bool) "vcd-replayed counts equal recorded" true
    (Counts.equal reference (b3.Backend.counts ()))

let test_tracer () =
  let low = lower (Sic_designs.Counter.circuit ~width:4 ~limit:15 ()) in
  let path = Filename.temp_file "sic_trace" ".vcd" in
  let b, close = Tracer.attach ~regs:true ~path (Compiled.create low) in
  Backend.reset_sequence b;
  b.Backend.poke "en" (Bv.one 1);
  b.Backend.step 10;
  close ();
  let wave = Vcd.read_file path in
  Sys.remove path;
  Alcotest.(check int) "12 samples (reset + 10 + final at close)" 12
    (Array.length wave.Vcd.frames);
  Alcotest.(check bool) "value signal present" true
    (List.mem_assoc "value" wave.Vcd.signals);
  Alcotest.(check bool) "register traced" true (List.mem_assoc "count" wave.Vcd.signals);
  (* the counter waveform counts up from the post-reset sample *)
  let v i = Bv.to_int_trunc (List.assoc "value" wave.Vcd.frames.(i)) in
  Alcotest.(check int) "cycle 2 value" 1 (v 2);
  Alcotest.(check int) "cycle 9 value" 8 (v 9);
  (* the close-time sample is the only one that sees the last step *)
  Alcotest.(check int) "final sample shows the post-run state" 10 (v 11)

let test_poke_errors () =
  let b = Compiled.create (lower (gcd_circuit ())) in
  (match b.Backend.poke "io_out_bits" (Bv.zero 16) with
  | exception Backend.Sim_error _ -> ()
  | _ -> Alcotest.fail "poking an output must fail");
  match b.Backend.peek "nonexistent" with
  | exception Backend.Sim_error _ -> ()
  | _ -> Alcotest.fail "peeking a ghost must fail"

(* every backend reports a bad name as a simulation error, not as
   whatever its internal symbol lookup happens to raise *)
let expect_sim_error_on_every_backend what f =
  let low = lower (gcd_circuit ()) in
  List.iter
    (fun (name, create) ->
      match f (create low) with
      | exception Backend.Sim_error _ -> ()
      | () -> Alcotest.failf "%s: %s must fail" name what)
    backends

let test_peek_unknown_all_backends () =
  expect_sim_error_on_every_backend "peeking a ghost" (fun b ->
      ignore (b.Backend.peek "nonexistent"))

(* ... and the converse: every declared name, memory ports included, is
   peekable on every backend and reads the interpreter's value *)
let test_peek_every_signal_all_backends () =
  let low = lower (Sic_designs.Fifo.circuit ()) in
  let env = Sic_ir.Circuit.build_env (Sic_ir.Circuit.main low) in
  let run create =
    let b = create low in
    Backend.reset_sequence b;
    Backend.random_stimulus ~bits:(Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.create 9)) ~cycles:30 b;
    Hashtbl.fold (fun n _ acc -> (n, Bv.to_hex_string (b.Backend.peek n)) :: acc) env []
    |> List.sort compare
  in
  let reference = run Interp.create in
  List.iter
    (fun (name, create) ->
      Alcotest.(check (list (pair string string))) (name ^ " peeks") reference (run create))
    backends

let test_poke_output_all_backends () =
  expect_sim_error_on_every_backend "poking an output" (fun b ->
      b.Backend.poke "io_out_bits" (Bv.zero 16))

let test_combinational_loop_detected () =
  let cb = Sic_ir.Dsl.create_circuit "Loop" in
  Sic_ir.Dsl.module_ cb "Loop" (fun m ->
      let open Sic_ir.Dsl in
      let a = wire m "a" (Sic_ir.Ty.UInt 1) in
      let b = wire m "b" (Sic_ir.Ty.UInt 1) in
      let out = output m "out" (Sic_ir.Ty.UInt 1) in
      connect m a (not_s b);
      connect m b (not_s a);
      connect m out a);
  let low = lower (Sic_ir.Dsl.finalize cb) in
  (match Compiled.create low with
  | exception Backend.Sim_error _ -> ()
  | _ -> Alcotest.fail "compiled: loop must be detected");
  let b = Interp.create low in
  match b.Backend.peek "out" with
  | exception Backend.Sim_error _ -> ()
  | _ -> Alcotest.fail "interp: loop must be detected"

let test_multi_writer_memory () =
  (* two write ports hitting the same address in the same cycle: the later
     port in declaration order wins, identically on every backend *)
  let cb = Sic_ir.Dsl.create_circuit "TwoW" in
  Sic_ir.Dsl.module_ cb "TwoW" (fun m ->
      let open Sic_ir.Dsl in
      let addr = input m "addr" (Sic_ir.Ty.UInt 3) in
      let d0 = input m "d0" (Sic_ir.Ty.UInt 8) in
      let d1 = input m "d1" (Sic_ir.Ty.UInt 8) in
      let we1 = input m "we1" (Sic_ir.Ty.UInt 1) in
      let out = output m "out" (Sic_ir.Ty.UInt 8) in
      let mem =
        mem m "m" (Sic_ir.Ty.UInt 8) ~depth:8 ~readers:[ "r" ] ~writers:[ "w0"; "w1" ]
      in
      mem_write mem "w0" ~addr ~data:d0;
      when_ m we1 (fun () -> mem_write mem "w1" ~addr ~data:d1);
      connect m out (mem_read mem "r" addr));
  let low = lower (Sic_ir.Dsl.finalize cb) in
  List.iter
    (fun (name, create) ->
      let b = create low in
      b.Backend.poke "addr" (Bv.of_int ~width:3 5);
      b.Backend.poke "d0" (Bv.of_int ~width:8 11);
      b.Backend.poke "d1" (Bv.of_int ~width:8 22);
      b.Backend.poke "we1" (Bv.one 1);
      b.Backend.step 1;
      Alcotest.(check int) (name ^ ": later port wins") 22
        (Bv.to_int_trunc (b.Backend.peek "out"));
      b.Backend.poke "we1" (Bv.zero 1);
      b.Backend.step 1;
      Alcotest.(check int) (name ^ ": single writer") 11
        (Bv.to_int_trunc (b.Backend.peek "out")))
    backends

let test_stop_statement () =
  let cb = Sic_ir.Dsl.create_circuit "Stopper" in
  Sic_ir.Dsl.module_ cb "Stopper" (fun m ->
      let open Sic_ir.Dsl in
      let x = input m "x" (Sic_ir.Ty.UInt 4) in
      let out = output m "out" (Sic_ir.Ty.UInt 4) in
      connect m out x;
      stop m "halt" (x ==: lit 4 9) 1);
  let low = lower (Sic_ir.Dsl.finalize cb) in
  List.iter
    (fun (name, create) ->
      let b = create low in
      b.Backend.poke "x" (Bv.of_int ~width:4 3);
      b.Backend.step 2;
      Alcotest.(check bool) (name ^ ": not stopped") false (b.Backend.finished ());
      b.Backend.poke "x" (Bv.of_int ~width:4 9);
      b.Backend.step 1;
      Alcotest.(check bool) (name ^ ": stopped") true (b.Backend.finished ()))
    backends

let test_printf_statement () =
  let cb = Sic_ir.Dsl.create_circuit "Printer" in
  Sic_ir.Dsl.module_ cb "Printer" (fun m ->
      let open Sic_ir.Dsl in
      let x = input m "x" (Sic_ir.Ty.UInt 8) in
      let out = output m "out" (Sic_ir.Ty.UInt 8) in
      connect m out x;
      when_ m (x >: lit 8 10) (fun () ->
          printf_ m true_ "x=%d hex=%x pct=%% " [ x; x ]));
  let low = lower (Sic_ir.Dsl.finalize cb) in
  List.iter
    (fun (name, create) ->
      let buf = Buffer.create 64 in
      let saved = !Backend.print_sink in
      Backend.print_sink := Buffer.add_string buf;
      Fun.protect
        ~finally:(fun () -> Backend.print_sink := saved)
        (fun () ->
          let b = create low in
          b.Backend.poke "x" (Bv.of_int ~width:8 5);
          b.Backend.step 1;
          Alcotest.(check string) (name ^ ": silent below threshold") "" (Buffer.contents buf);
          b.Backend.poke "x" (Bv.of_int ~width:8 200);
          b.Backend.step 2;
          Alcotest.(check string)
            (name ^ ": formatted output")
            "x=200 hex=c8 pct=% x=200 hex=c8 pct=% " (Buffer.contents buf)))
    backends

let test_builtin_line_coverage () =
  (* the built-in mode must behave exactly like running the line-coverage
     pass externally (the §6/Fig. 8 story): same [l_*] counter names, same
     counts — and the internal instrumentation db is exposed, not dropped *)
  let sim = Compiled.build ~builtin_line:true (gcd_circuit ()) in
  let db =
    match Compiled.line_db sim with
    | Some db -> db
    | None -> Alcotest.fail "builtin_line must expose its instrumentation db"
  in
  Alcotest.(check bool) "db has branches" true (List.length db > 0);
  let b = Compiled.to_backend ~name:"compiled-builtin" sim in
  let obs_b, counts_builtin = random_drive b ~seed:99 ~cycles:150 in
  let c2, _ = Sic_coverage.Line_coverage.instrument (gcd_circuit ()) in
  let b2 = Compiled.create (lower c2) in
  let obs_p, counts_pass = random_drive b2 ~seed:99 ~cycles:150 in
  Alcotest.(check string) "builtin outputs == pass-based outputs" obs_p obs_b;
  Alcotest.(check bool) "builtin counts == pass-based counts" true
    (Counts.equal counts_builtin counts_pass);
  (* counters keep the [l_] prefix — there is no separate [bl_] namespace *)
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) (n ^ " has l_ prefix") true
        (String.length n > 2 && String.sub n 0 2 = "l_"))
    (Counts.to_sorted_list counts_builtin);
  (* without the flag there is no db *)
  Alcotest.(check bool) "no db without builtin_line" true
    (Compiled.line_db (Compiled.build (lower (gcd_circuit ()))) = None)

let test_zero_allocation_per_cycle () =
  (* the word-level engine's headline property: on a design whose signals
     all fit a machine word, steady-state stepping performs no heap
     allocation. The small slack absorbs Gc.minor_words' own float boxing
     and any one-off lazy initialization — a single word leaked per cycle
     would cost 10_000. *)
  List.iter
    (fun (name, create) ->
      List.iter
        (fun (dname, c) ->
          let b = create (lower c) in
          Backend.reset_sequence b;
          if List.mem_assoc "en" (Backend.data_inputs b) then
            b.Backend.poke "en" (Bv.one 1);
          b.Backend.step 100 (* warm-up: first full tape run *);
          let before = Gc.minor_words () in
          b.Backend.step 10_000;
          let words = Gc.minor_words () -. before in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: %.0f minor words over 10k cycles" name dname words)
            true (words < 256.))
        [
          ("counter", Sic_designs.Counter.circuit ~width:4 ~limit:15 ());
          ("gcd", gcd_circuit ());
        ])
    [ ("compiled", fun c -> Compiled.create c); ("essent", Essent.create) ]

let tests =
  [
    Alcotest.test_case "printf statement" `Quick test_printf_statement;
    Alcotest.test_case "cross-backend differential (11 designs)" `Quick
      test_cross_backend_equivalence;
    Alcotest.test_case "vcd write/read round-trip" `Quick test_vcd_roundtrip;
    Alcotest.test_case "vcd tracer wrapper" `Quick test_tracer;
    Alcotest.test_case "record/replay identical counts" `Quick test_record_replay;
    Alcotest.test_case "poke/peek errors" `Quick test_poke_errors;
    Alcotest.test_case "peek of an unknown signal raises Sim_error on every backend" `Quick
      test_peek_unknown_all_backends;
    Alcotest.test_case "poke of an output raises Sim_error on every backend" `Quick
      test_poke_output_all_backends;
    Alcotest.test_case "every declared signal is peekable on every backend" `Quick
      test_peek_every_signal_all_backends;
    Alcotest.test_case "combinational loop detection" `Quick test_combinational_loop_detected;
    Alcotest.test_case "stop statement" `Quick test_stop_statement;
    Alcotest.test_case "multi-writer memory semantics" `Quick test_multi_writer_memory;
    Alcotest.test_case "builtin line coverage audit" `Quick test_builtin_line_coverage;
    Alcotest.test_case "zero allocation per cycle (word-level path)" `Quick
      test_zero_allocation_per_cycle;
  ]
