(** [fuzz-riscv]: coverage-guided fuzzing of line-instrumented riscv-mini,
    a closed loop with the CLI's input sizes.

    Chosen because the fuzzer rebuilds the simulation engine for every
    execution ([Fuzzer.execute] calls the harness's [create]), and on
    riscv-mini that build costs several times the stepping: this is the
    workload where engine reuse and lane batching should show, and the
    only one.

    A round is one [Fuzzer.run] with a fixed exec budget and the run's
    seed, so every round does identical work. The fuzzer marks where each
    execution ends: [on_snapshot] fires after every mutated execution
    ([snapshot_every:1]), and an execution's latency is the time between
    two such marks, so it includes the loop's own bookkeeping. Untraced
    rounds run the harness exactly as [make_harness] builds it. Traced
    rounds give the harness a [create] hook that times each engine build
    and wraps the built engine's [step], [poke] and [counts]. *)

module Fuzzer = Sic_fuzz.Fuzzer
module Backend = Sic_sim.Backend
module Counts = Sic_coverage.Counts
module Obs = Sic_obs.Obs

let execs_per_round = 100
let seed_cycles = 32
let max_cycles = 128

(* inputs from the first round's corpus re-executed on the interpreter *)
let gate_inputs = 12

type probe = {
  mutable ends : float array;  (** execution end times, this round *)
  mutable n : int;
  mutable exec_span : Trace.span option;
  mutable step_ns : int;
  mutable poke_ns : int;
  mutable cycles : int;
  mutable builds : int;
}

let probe () =
  {
    ends = Array.make 256 0.;
    n = 0;
    exec_span = None;
    step_ns = 0;
    poke_ns = 0;
    cycles = 0;
    builds = 0;
  }

let mark p ~execs:_ ~covered:_ =
  if p.n = Array.length p.ends then begin
    let a = Array.make (2 * p.n) 0. in
    Array.blit p.ends 0 a 0 p.n;
    p.ends <- a
  end;
  p.ends.(p.n) <- Bench.now ();
  p.n <- p.n + 1

(* the traced engine: per-cycle calls are summed, not spanned *)
let wrap p (b : Backend.t) : Backend.t =
  let step n =
    let t0 = Obs.now_ns () in
    b.Backend.step n;
    p.step_ns <- p.step_ns + (Obs.now_ns () - t0);
    p.cycles <- p.cycles + n
  in
  let poke name v =
    let t0 = Obs.now_ns () in
    b.Backend.poke name v;
    p.poke_ns <- p.poke_ns + (Obs.now_ns () - t0)
  in
  (* [counts] is the last engine call of an execution: the harvest ends it *)
  let counts () =
    let c = Trace.with_span "cover.harvest" b.Backend.counts in
    (match p.exec_span with
    | Some s ->
        Trace.charge s "sim.step" (float_of_int p.step_ns *. 1e-9);
        Trace.charge s "sim.poke" (float_of_int p.poke_ns *. 1e-9);
        Trace.finish s;
        p.exec_span <- None
    | None -> ());
    c
  in
  { b with Backend.step; poke; counts }

(* the traced rounds' engine builds: each opens an execution's span *)
let traced_create p (c : Sic_ir.Circuit.t) : Backend.t =
  let s = Trace.start "fuzz.exec" in
  p.exec_span <- Some s;
  p.step_ns <- 0;
  p.poke_ns <- 0;
  p.builds <- p.builds + 1;
  wrap p (Trace.with_span "sim.build" (fun () -> Sic_sim.Compiled.create c))

let setup (_ : int) =
  let c = Bench.phase "frontend.elab" (fun () -> Sic_designs.Riscv_mini.circuit ()) in
  let ic = Bench.phase "cover.instrument" (fun () -> fst (Sic_coverage.Line_coverage.instrument c)) in
  let low = Bench.phase "passes.lower" (fun () -> Sic_passes.Compile.lower ic) in
  ignore (Bench.phase "sim.build" (fun () -> Sic_sim.Compiled.create low));
  (low, Fuzzer.make_harness low)

type round = {
  wall : float;
  lat : float array;  (** per-execution seconds *)
  covered : int;
  corpus_size : int;
  seen_pairs : int;
  execs : int;
  corpus : bytes list;  (** the first round's only, for the gate *)
  traced : bool;
  cycles : int;
  builds : int;
}

let run_round p ~seed ~trace (low, h) i =
  let traced = Bench.traced_round ~trace i in
  let h = if traced then Fuzzer.make_harness ~create:(traced_create p) low else h in
  p.n <- 0;
  p.cycles <- 0;
  p.builds <- 0;
  Trace.on := traced;
  let t0 = Bench.now () in
  let res =
    Trace.with_span "round" (fun () ->
        Fuzzer.run ~seed ~execs:execs_per_round ~seed_cycles ~max_cycles ~snapshot_every:1
          ~on_snapshot:(mark p) h)
  in
  let t1 = Bench.now () in
  Trace.on := false;
  let lat = Array.init (max 0 (p.n - 1)) (fun k -> p.ends.(k + 1) -. p.ends.(k)) in
  let final = res.Fuzzer.final in
  {
    wall = t1 -. t0;
    lat;
    covered = Counts.covered_points final.Fuzzer.cumulative;
    corpus_size = final.Fuzzer.corpus_size;
    seen_pairs = final.Fuzzer.seen_pairs;
    execs = final.Fuzzer.execs;
    corpus = (if i = 0 then res.Fuzzer.corpus else []);
    traced;
    cycles = p.cycles;
    builds = p.builds;
  }

let layer_of = function
  | "round" -> "fuzz.loop"
  | "fuzz.exec" -> "fuzz.unpack"
  | name -> name

(* evenly spaced inputs of the corpus, compiled vs interpreter, on a
   freshly elaborated copy of the design: rounds keep no circuit, so the
   process's memory does not grow with the number of rounds *)
let interp_gate corpus =
  let low =
    Sic_passes.Compile.lower (fst (Sic_coverage.Line_coverage.instrument (Sic_designs.Riscv_mini.circuit ())))
  in
  let corpus = Array.of_list corpus in
  let n = Array.length corpus in
  let picks = List.sort_uniq compare (List.init (min n gate_inputs) (fun k -> k * n / min n gate_inputs)) in
  let compiled = Fuzzer.make_harness low in
  let interp = Fuzzer.make_harness ~create:Sic_sim.Interp.create low in
  let bad =
    List.filter
      (fun k ->
        not (Counts.equal (Fuzzer.execute compiled corpus.(k)) (Fuzzer.execute interp corpus.(k))))
      picks
  in
  Bench.gate "fuzz: corpus inputs re-executed on the interpreter give equal counts" (bad = [])
    (Printf.sprintf "%d inputs compared, %d differ" (List.length picks) (List.length bad))

let run ~seed ~seconds ~trace ~work:_ : Bench.result =
  let p = probe () in
  let setup_s, rs =
    Bench.rounds ~seconds ~setups_per_round:1 ~setup (run_round p ~seed ~trace)
  in
  let plain = List.filter (fun r -> not r.traced) rs in
  let quiet = Stats.quiet ~seconds:(fun r -> r.wall) plain in
  let traced = List.filter (fun r -> r.traced) rs in
  let first = List.hd rs in
  let signature (r : round) = (r.covered, r.corpus_size, r.seen_pairs) in
  let gates =
    [
      Bench.gate "fuzz: every round reaches the same coverage and corpus"
        (List.for_all (fun r -> signature r = signature first) rs)
        (Printf.sprintf "%d rounds" (List.length rs));
      interp_gate first.corpus;
    ]
  in
  let lat = Array.concat (List.map (fun r -> r.lat) quiet) in
  let rate = Array.of_list (List.map (fun r -> float_of_int execs_per_round /. r.wall) quiet) in
  let execs = List.fold_left (fun acc r -> acc + r.execs) 0 rs in
  let shares = Trace.layer_totals ~root:"round" ~layer_of (Trace.spans ()) in
  let durations name = Trace.durations ~root:"round" name (Trace.spans ()) in
  let layers =
    match traced with
    | [] -> []
    | t :: _ ->
        let cycles = List.fold_left (fun acc r -> acc + r.cycles) 0 traced in
        let step_s =
          List.fold_left
            (fun acc (s : Trace.span) ->
              acc +. Option.value ~default:0. (List.assoc_opt "sim.step" s.Trace.charged))
            0. (Trace.spans ())
        in
        [
          ("sim.builds", float_of_int t.builds);
          ("sim.build_ms", Bench.median_ms (durations "sim.build"));
          ("sim.cycles", float_of_int t.cycles);
          ("sim.step_ns_per_cycle", step_s *. 1e9 /. float_of_int (max 1 cycles));
          ("cover.harvest_us", Stats.median (durations "cover.harvest") *. 1e6);
          ("fuzz.novel_ratio", float_of_int (t.corpus_size - 1) /. float_of_int t.execs);
          ( "bench.trace_overhead",
            Bench.trace_overhead
              ~traced:(List.map (fun r -> r.wall) traced)
              ~untraced:(List.map (fun r -> r.wall) plain) );
        ]
  in
  let rows =
    [
      Bench.row ~samples:(Array.length setup_s) "setup_s" "s" (Stats.quiet_median setup_s);
      Bench.row ~samples:(Array.length rate) "throughput_per_s" "1/s" (Stats.median rate);
    ]
    @ Bench.pct_row "op_p50_ms" lat 50.
    @ Bench.pct_row "op_p99_ms" lat 99.
    @ [ Bench.row "points_covered" "count" (float_of_int first.covered) ]
  in
  {
    Bench.attempted = execs;
    failed = 0;
    e2e =
      (if trace then []
       else
         [
           ("setup_s", Stats.quiet_median setup_s);
           ("throughput_per_s", Stats.median rate);
           ("op_p50_ms", Bench.op_p50_ms lat);
           ("points_covered", float_of_int first.covered);
         ]);
    report = rows;
    layers;
    shares;
    gates;
  }
