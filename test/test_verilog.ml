(** Verilog frontend tests: lexer/parser units, located diagnostics on the
    negative fixtures, a hand-translated DSL twin of the counter fixture
    compared differentially across every backend, printer round-trips of
    every lowered fixture, [$readmemh] simulation, an end-to-end coverage
    run of the vendored RISC-V core, and qcheck properties that malformed
    input only ever raises the typed frontend error. *)

module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Verilog = Sic_verilog.Verilog
open Sic_ir
open Sic_sim
open Helpers

let fixtures_dir = "../examples/verilog"
let fixture name = Filename.concat fixtures_dir name
let bad name = Filename.concat "verilog" name

(* --- lexer ------------------------------------------------------------ *)

let test_lexer_literals () =
  let toks = Sic_verilog.Lexer.tokenize ~file:"t" "3'b111 12'h0f0 8'd255 // x\nfoo" in
  let numbers =
    Array.to_list toks
    |> List.filter_map (fun (t : Sic_verilog.Lexer.t) ->
           match t.Sic_verilog.Lexer.tok with
           | Sic_verilog.Lexer.Number { width; value } -> Some (width, value)
           | _ -> None)
  in
  (match numbers with
  | [ (Some 3, a); (Some 12, b); (Some 8, c) ] ->
      check_bv "3'b111" (Bv.of_int ~width:3 7) a;
      check_bv "12'h0f0" (Bv.of_int ~width:12 0xf0) b;
      check_bv "8'd255" (Bv.of_int ~width:8 255) c
  | _ -> Alcotest.fail "unexpected token stream");
  (* the comment swallows the rest of its line; foo is on line 2 *)
  let foo =
    Array.to_list toks
    |> List.find (fun (t : Sic_verilog.Lexer.t) -> t.Sic_verilog.Lexer.tok = Sic_verilog.Lexer.Id "foo")
  in
  Alcotest.(check int) "foo line" 2 foo.Sic_verilog.Lexer.pos.line;
  (* a sized literal without its size is a typed error, not a width-1 guess *)
  match Sic_verilog.Lexer.tokenize ~file:"t" "'h1f" with
  | _ -> Alcotest.fail "'h1f without a size should be a lex error"
  | exception Verilog.Error _ -> ()

let test_lexer_positions () =
  let toks = Sic_verilog.Lexer.tokenize ~file:"t" "a\n  bb\n    ccc" in
  let at i = toks.(i).Sic_verilog.Lexer.pos in
  Alcotest.(check (pair int int)) "a" (1, 1) ((at 0).line, (at 0).col);
  Alcotest.(check (pair int int)) "bb" (2, 3) ((at 1).line, (at 1).col);
  Alcotest.(check (pair int int)) "ccc" (3, 5) ((at 2).line, (at 2).col)

let test_lexer_block_comment () =
  let toks = Sic_verilog.Lexer.tokenize ~file:"t" "x /* one\ntwo */ y" in
  match Array.to_list toks with
  | [ a; b; _eof ] ->
      Alcotest.(check bool) "x" true (a.Sic_verilog.Lexer.tok = Sic_verilog.Lexer.Id "x");
      Alcotest.(check bool) "y" true (b.Sic_verilog.Lexer.tok = Sic_verilog.Lexer.Id "y");
      Alcotest.(check int) "y line" 2 b.Sic_verilog.Lexer.pos.line
  | _ -> Alcotest.fail "expected exactly x y eof"

(* --- parser ----------------------------------------------------------- *)

let test_parse_counter_ast () =
  let d = Verilog.parse_string ~file:"counter.v" (In_channel.with_open_bin (fixture "counter.v") In_channel.input_all) in
  match d.Sic_verilog.Ast.modules with
  | [ m ] ->
      Alcotest.(check string) "name" "counter" m.Sic_verilog.Ast.mod_name;
      Alcotest.(check (list string)) "header ports" [ "clk"; "reset"; "en"; "count" ]
        m.Sic_verilog.Ast.mod_ports
  | ms -> Alcotest.failf "expected one module, got %d" (List.length ms)

let test_parse_rejects_blocking_assign () =
  let src = "module m(input clk, output reg q);\nalways @(posedge clk) begin q = 1'b1; end\nendmodule\n" in
  match Verilog.parse_string ~file:"m.v" src with
  | exception Verilog.Error { pos; message } ->
      Alcotest.(check int) "line" 2 pos.line;
      Alcotest.(check bool) "mentions blocking" true (contains ~needle:"blocking" message)
  | _ -> Alcotest.fail "blocking assignment must be rejected"

(* --- negative fixtures: every one dies with a located diagnostic ------ *)

let negative_fixtures =
  [
    ("bad_undeclared.v", 6, "undeclared");
    ("bad_width.v", 8, "width mismatch");
    ("bad_multidriver.v", 9, "multiple drivers");
    ("bad_primitive.v", 6, "unsupported primitive");
    ("bad_comment.v", 6, "unterminated block comment");
    ("bad_literal.v", 6, "bad sized literal");
  ]

let test_negative_fixtures () =
  List.iter
    (fun (name, line, needle) ->
      match Verilog.load_file (bad name) with
      | _ -> Alcotest.failf "%s: expected a frontend error" name
      | exception Verilog.Error { pos; message } ->
          Alcotest.(check int) (name ^ " line") line pos.line;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S mentions %S" name message needle)
            true (contains ~needle message)
      | exception e ->
          Alcotest.failf "%s: escaped with %s" name (Printexc.to_string e))
    negative_fixtures

(* --- differential: counter.v vs its hand translation into the DSL ----- *)

(* counter.v, translated statement for statement so that line-coverage
   instrumentation produces the same cover points in the same order *)
let counter_dsl () =
  let cb = Dsl.create_circuit "counter" in
  Dsl.module_ cb "counter" (fun m ->
      let open Dsl in
      let en = input ~loc:__POS__ m "en" (Ty.UInt 1) in
      let count = output ~loc:__POS__ m "count" (Ty.UInt 8) in
      let cnt = reg_init ~loc:__POS__ m "cnt" (lit 8 0) in
      when_ ~loc:__POS__ m en (fun () ->
          when_else ~loc:__POS__ m (cnt ==: lit 8 200)
            (fun () -> connect m cnt (lit 8 0))
            (fun () -> connect m cnt (bits_s (cnt +: lit 8 1) ~hi:7 ~lo:0)));
      connect m count cnt);
  Dsl.finalize cb

let test_counter_differential () =
  let from_v = Verilog.load_file (fixture "counter.v") in
  let from_dsl = counter_dsl () in
  let prep c =
    let c, _ = Sic_coverage.Line_coverage.instrument c in
    lower c
  in
  let low_v = prep from_v and low_dsl = prep from_dsl in
  List.iter
    (fun (bname, create) ->
      let obs_v, counts_v = random_drive (create low_v) ~seed:42 ~cycles:300 in
      let obs_d, counts_d = random_drive (create low_dsl) ~seed:42 ~cycles:300 in
      Alcotest.(check string) (bname ^ ": outputs agree") obs_d obs_v;
      Alcotest.(check bool)
        (bname ^ ": coverage counts agree")
        true (Counts.equal counts_d counts_v))
    backends

(* --- printer round-trip ------------------------------------------------ *)

let test_printer_roundtrip () =
  List.iter
    (fun name ->
      let c = Verilog.load_file (fixture name) in
      let printed = Printer.circuit_to_string c in
      let reparsed = Parser.parse_circuit printed in
      let printed2 = Printer.circuit_to_string reparsed in
      Alcotest.(check string) (name ^ " round-trips") printed printed2)
    [ "counter.v"; "fsm.v"; "mem.v"; "rv.v" ]

(* --- $readmemh --------------------------------------------------------- *)

let test_readmemh_sim () =
  let c = Verilog.load_file (fixture "mem.v") in
  let low = lower c in
  let b = Compiled.create low in
  Backend.reset_sequence b;
  b.Backend.poke "we" (Bv.zero 1);
  (* registered read: poke the address, step, observe *)
  let read addr =
    b.Backend.poke "raddr" (Bv.of_int ~width:4 addr);
    b.Backend.step 1;
    Bv.to_int_trunc (b.Backend.peek "rdata")
  in
  Alcotest.(check int) "store[3] preloaded" 0x33 (read 3);
  Alcotest.(check int) "store[8] after @8" 0x88 (read 8);
  Alcotest.(check int) "store[15] preloaded" 0xff (read 15);
  (* a write lands and reads back *)
  b.Backend.poke "we" (Bv.one 1);
  b.Backend.poke "waddr" (Bv.of_int ~width:4 2);
  b.Backend.poke "wdata" (Bv.of_int ~width:8 0xab);
  b.Backend.step 1;
  b.Backend.poke "we" (Bv.zero 1);
  Alcotest.(check int) "written word reads back" 0xab (read 2)

(* --- end to end: the vendored core runs its program -------------------- *)

let test_rv_end_to_end () =
  let c = Verilog.load_file (fixture "rv.v") in
  let c, line_db = Sic_coverage.Line_coverage.instrument c in
  let low = lower c in
  let low, toggle_db = Sic_coverage.Toggle_coverage.instrument low in
  let low, fsm_db = Sic_coverage.Fsm_coverage.instrument low in
  Alcotest.(check bool) "line cover points exist" true (line_db <> []);
  Alcotest.(check bool) "an FSM was inferred" true (fsm_db <> []);
  let b = Compiled.create low in
  Backend.reset_sequence b;
  b.Backend.step 1000;
  let counts = b.Backend.counts () in
  let nonzero prefix =
    List.exists
      (fun name -> contains ~needle:prefix name && Counts.get counts name > 0)
      (Counts.names counts)
  in
  Alcotest.(check bool) "line coverage is non-zero" true (nonzero "l_");
  Alcotest.(check bool) "toggle coverage is non-zero" true (nonzero "t_");
  Alcotest.(check bool) "fsm coverage is non-zero" true (nonzero "fsm_");
  ignore toggle_db;
  (* the program counts on the LED window; the LEDs pass through zero, so
     poll for a nonzero reading rather than sampling one instant *)
  let rec lit n =
    if n = 0 then false
    else if Bv.to_int_trunc (b.Backend.peek "leds") <> 0 then true
    else begin
      b.Backend.step 10;
      lit (n - 1)
    end
  in
  Alcotest.(check bool) "leds lit up" true (lit 50)

(* --- provenance: lowering keeps source locations ----------------------- *)

(* The hotspot profiler attributes tape instructions to statements via
   [Stmt.def_name] + [Stmt.info]; if the frontend or a lowering pass drops
   positions, hotspot reports degrade to "-". Guard the whole pipeline:
   at least 90% of the named statements in lowered rv.v must carry a real
   position. *)
let test_rv_lowered_provenance () =
  let c = Verilog.load_file (fixture "rv.v") in
  let low = lower c in
  let named = ref 0 and located = ref 0 in
  List.iter
    (fun m ->
      Stmt.iter
        (fun s ->
          match Stmt.def_name s with
          | None -> ()
          | Some _ ->
              incr named;
              if not (Info.equal (Stmt.info s) Info.unknown) then incr located)
        m.Circuit.body)
    low.Circuit.modules;
  Alcotest.(check bool) "named statements exist" true (!named > 0);
  let frac = float_of_int !located /. float_of_int !named in
  if frac < 0.9 then
    Alcotest.failf "only %d/%d (%.0f%%) of named lowered statements carry a position"
      !located !named (100. *. frac)

(* --- qcheck: malformed input never escapes the typed error ------------- *)

let only_typed_errors src =
  match Verilog.load_string ~file:"fuzz.v" ~dir:"." src with
  | _ -> true
  | exception Verilog.Error _ -> true
  | exception Stack_overflow -> false
  | exception _ -> false

let soup_char =
  QCheck.Gen.frequency
    [
      (8, QCheck.Gen.oneofl [ 'a'; 'b'; 'm'; 'o'; 'd'; 'u'; 'l'; 'e'; 'w'; 'i'; 'r'; 'g'; 'n' ]);
      (4, QCheck.Gen.oneofl [ ' '; '\n'; ';'; '('; ')'; '['; ']'; '{'; '}' ]);
      (3, QCheck.Gen.oneofl [ '\''; '0'; '1'; '9'; 'h'; '='; '<'; '@'; '/'; '*'; '"' ]);
      (1, QCheck.Gen.char);
    ]

let byte_soup_never_crashes =
  QCheck.Test.make ~count:500 ~name:"byte soup only raises the typed frontend error"
    (QCheck.make
       QCheck.Gen.(string_size ~gen:soup_char (int_bound 400))
       ~print:(fun s -> String.escaped s))
    only_typed_errors

let mutate rng src =
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let mutations = 1 + (Sic_fuzz.Rng.bits30 rng () mod 8) in
  for _ = 1 to mutations do
    if n > 0 then begin
      let i = Sic_fuzz.Rng.bits30 rng () mod n in
      let c = Char.chr (32 + (Sic_fuzz.Rng.bits30 rng () mod 95)) in
      Bytes.set b i c
    end
  done;
  Bytes.to_string b

let mutated_fixture_never_crashes =
  let sources =
    lazy
      (List.map
         (fun name -> In_channel.with_open_bin (fixture name) In_channel.input_all)
         [ "counter.v"; "fsm.v"; "mem.v" ])
  in
  QCheck.Test.make ~count:300 ~name:"mutated fixtures only raise the typed frontend error"
    QCheck.(small_int)
    (fun seed ->
      let rng = Sic_fuzz.Rng.create seed in
      List.for_all (fun src -> only_typed_errors (mutate rng src)) (Lazy.force sources))

let tests =
  [
    Alcotest.test_case "lexer: sized literals" `Quick test_lexer_literals;
    Alcotest.test_case "lexer: line/col positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer: block comments" `Quick test_lexer_block_comment;
    Alcotest.test_case "parser: counter AST" `Quick test_parse_counter_ast;
    Alcotest.test_case "parser: blocking assign rejected" `Quick
      test_parse_rejects_blocking_assign;
    Alcotest.test_case "negative fixtures are located" `Quick test_negative_fixtures;
    Alcotest.test_case "counter.v == DSL twin on all backends" `Quick
      test_counter_differential;
    Alcotest.test_case "printer round-trip of lowered fixtures" `Quick
      test_printer_roundtrip;
    Alcotest.test_case "$readmemh image is simulated" `Quick test_readmemh_sim;
    Alcotest.test_case "rv.v end-to-end coverage" `Quick test_rv_end_to_end;
    Alcotest.test_case "rv.v lowered statements keep positions" `Quick
      test_rv_lowered_provenance;
    QCheck_alcotest.to_alcotest byte_soup_never_crashes;
    QCheck_alcotest.to_alcotest mutated_fixture_never_crashes;
  ]
