(** Verilog frontend throughput: parse-only and parse+lower rates on the
    vendored RISC-V core (examples/verilog/rv.v), reported as lines/s and
    ns/line and written to BENCH_verilog.json in the same layout as the
    other bench artifacts. SIC_BENCH_SMOKE=1 shrinks the measurement
    quota so CI can afford the smoke run. *)

module Verilog = Sic_verilog.Verilog
module Json = Sic_obs.Json

let src_path = "examples/verilog/rv.v"
let src_dir = Filename.dirname src_path

let run () =
  let smoke = Sys.getenv_opt "SIC_BENCH_SMOKE" <> None in
  let quota = if smoke then 0.05 else 0.5 in
  Timing.header
    (Printf.sprintf "verilog: frontend throughput on %s%s" src_path
       (if smoke then " (smoke)" else ""));
  let src = In_channel.with_open_bin src_path In_channel.input_all in
  let lines = List.length (String.split_on_char '\n' src) in
  (* sanity: both stages still work before we time them *)
  ignore (Verilog.parse_string ~file:src_path src);
  ignore (Verilog.load_string ~file:src_path ~dir:src_dir src);
  let measure name fn =
    let ns = Timing.ns_per_run ~quota fn in
    let ns_line = ns /. float_of_int lines in
    let lines_s = 1e9 /. ns_line in
    Timing.row "%-14s %10.0f lines/s %10.1f ns/line\n" name lines_s ns_line;
    (name, lines_s, ns_line)
  in
  let results =
    [
      measure "parse" (fun () -> ignore (Verilog.parse_string ~file:src_path src));
      measure "parse+lower" (fun () ->
          ignore (Verilog.load_string ~file:src_path ~dir:src_dir src));
    ]
  in
  Timing.write_json "BENCH_verilog.json"
    [
      ("source", Json.String src_path);
      ("lines", Json.Int lines);
      ("smoke", Json.Bool smoke);
      ( "results",
        Json.List
          (List.map
             (fun (name, lines_s, ns_line) ->
               Json.Obj
                 [
                   ("stage", Json.String name);
                   ("lines_per_s", Json.Float lines_s);
                   ("ns_per_line", Json.Float ns_line);
                 ])
             results) );
    ]
