(** [sic_repl] — an interactive circuit debugger on the tree-walking
    interpreter (the Treadle-style workflow: instant spin-up, poke around,
    watch covers count).

    Usage: [sic_repl <design-name | FILE.fir>]; then:

    {v
    poke <signal> <value>     drive an input (decimal or 0x... hex)
    peek <signal>             read any signal
    step [n]                  advance n clock edges (default 1)
    reset [n]                 pulse reset for n cycles (default 1)
    counts                    show nonzero cover counters
    counts all                show every cover counter
    inputs / outputs          list ports
    line / fsm / rv           instrument+reload with a coverage metric
    help                      this text
    quit                      leave
    v}
*)

module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
open Sic_sim

let designs : (string * (unit -> Sic_ir.Circuit.t)) list =
  [
    ("counter", fun () -> Sic_designs.Counter.circuit ());
    ("gcd", fun () -> Sic_designs.Gcd.circuit ());
    ("fifo", fun () -> Sic_designs.Fifo.circuit ());
    ("uart", fun () -> Sic_designs.Uart.circuit ());
    ("i2c", fun () -> Sic_designs.I2c.circuit ());
    ("tlram", fun () -> Sic_designs.Tlram.circuit ());
    ("serv", fun () -> Sic_designs.Serv.circuit ());
    ("arbiter", fun () -> Sic_designs.Arbiter.circuit ());
    ("matmul", fun () -> Sic_designs.Matmul.circuit ());
    ("riscv-mini", fun () -> Sic_designs.Riscv_mini.circuit ());
  ]

let load name =
  match List.assoc_opt name designs with
  | Some f -> f ()
  | None ->
      if Sys.file_exists name then Sic_obs.Artifact.load name Sic_ir.Parser.parse_circuit
      else begin
        Printf.eprintf "unknown design or file %s; designs: %s\n" name
          (String.concat ", " (List.map fst designs));
        exit 2
      end

let parse_value s =
  if String.length s > 2 && String.sub s 0 2 = "0x" then
    Bv.of_hex_string ~width:(4 * (String.length s - 2)) (String.sub s 2 (String.length s - 2))
  else Bv.of_decimal_string ~width:62 s

let help () =
  print_string
    "commands: poke <sig> <val> | peek <sig> | step [n] | reset [n] | counts [all]\n\
    \          inputs | outputs | line | fsm | rv | help | quit\n"

let () =
  (match Array.to_list Sys.argv with
  | [ _; _name ] -> ()
  | _ ->
      prerr_endline "usage: sic_repl <design-name | FILE.fir>";
      exit 2);
  let original = load Sys.argv.(1) in
  let backend = ref (Interp.create original) in
  let reload low = backend := Interp.create low in
  Printf.printf "loaded %s on the interpreter; 'help' for commands\n"
    Sys.argv.(1);
  let continue_ = ref true in
  while !continue_ do
    print_string "sic> ";
    match input_line stdin with
    | exception End_of_file -> continue_ := false
    | line -> (
        let b = !backend in
        let words =
          String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
        in
        try
          match words with
          | [] -> ()
          | [ "quit" ] | [ "q" ] | [ "exit" ] -> continue_ := false
          | [ "help" ] -> help ()
          | [ "poke"; name; value ] -> b.Backend.poke name (parse_value value)
          | [ "peek"; name ] ->
              let v = b.Backend.peek name in
              Printf.printf "%s = %s (0x%s)\n" name (Bv.to_decimal_string v) (Bv.to_hex_string v)
          | [ "step" ] -> b.Backend.step 1
          | [ "step"; n ] -> b.Backend.step (int_of_string n)
          | [ "reset" ] -> Backend.reset_sequence b
          | [ "reset"; n ] -> Backend.reset_sequence ~cycles:(int_of_string n) b
          | [ "counts" ] ->
              List.iter
                (fun (k, v) -> if v > 0 then Printf.printf "%8d %s\n" v k)
                (Counts.to_sorted_list (b.Backend.counts ()))
          | [ "counts"; "all" ] ->
              List.iter
                (fun (k, v) -> Printf.printf "%8d %s\n" v k)
                (Counts.to_sorted_list (b.Backend.counts ()))
          | [ "inputs" ] ->
              List.iter
                (fun (n, ty) -> Printf.printf "  %s : %s\n" n (Sic_ir.Ty.to_string ty))
                (Backend.data_inputs b)
          | [ "outputs" ] ->
              List.iter
                (fun (n, ty) -> Printf.printf "  %s : %s\n" n (Sic_ir.Ty.to_string ty))
                (Backend.outputs b)
          | [ "line" ] ->
              let c, db = Sic_coverage.Line_coverage.instrument original in
              reload (Sic_passes.Compile.lower c);
              Printf.printf "reloaded with %d line cover points\n" (List.length db)
          | [ "fsm" ] ->
              let low = Sic_passes.Compile.lower original in
              let low, db = Sic_coverage.Fsm_coverage.instrument low in
              reload low;
              Printf.printf "reloaded with %d FSMs instrumented\n" (List.length db)
          | [ "rv" ] ->
              let low = Sic_passes.Compile.lower original in
              let low, db = Sic_coverage.Ready_valid_coverage.instrument low in
              reload low;
              Printf.printf "reloaded with %d ready/valid bundles\n" (List.length db)
          | _ ->
              print_endline "unrecognized command";
              help ()
        with
        | Backend.Sim_error m -> Printf.printf "error: %s\n" m
        | Failure m -> Printf.printf "error: %s\n" m)
  done
