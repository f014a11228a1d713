(** Measurement helpers for the benchmark harness: min-of-rounds timing
    for micro-benchmarks (per-cycle simulation costs) and a single-shot
    timer for whole workload runs, both over the monotonic clock. *)

module Obs = Sic_obs.Obs

(** [ns_per_run fn] estimates the execution time of [fn ()] in
    nanoseconds: the fastest per-run time over five timed batches, because
    preemption and frequency dips only ever add time. The batch size
    doubles until one batch takes a fifth of [quota] seconds (those runs
    double as warm-up); an [fn] slower than that runs one call per batch,
    with rounds cut short once twice [quota] is spent. Timed with
    {!Obs.now_ns}. *)
let ns_per_run ?(quota = 0.5) (fn : unit -> unit) : float =
  let rounds = 5 and budget = quota *. 1e9 in
  let time n =
    let t0 = Obs.now_ns () in
    for _ = 1 to n do
      fn ()
    done;
    float_of_int (Obs.now_ns () - t0)
  in
  let rec calibrate n = if time n >= budget /. float_of_int rounds then n else calibrate (2 * n) in
  let batch = calibrate 1 in
  let start = Obs.now_ns () in
  let best = ref infinity and r = ref 0 in
  while !r < rounds && (!r = 0 || float_of_int (Obs.now_ns () - start) < 2. *. budget) do
    best := Float.min !best (time batch /. float_of_int batch);
    incr r
  done;
  !best

(** Put the telemetry layer on the monotonic clock so bench telemetry is
    immune to wall-clock steps; see DESIGN.md. *)
let use_monotonic_clock () = Obs.set_clock (fun () -> float_of_int (Obs.now_ns ()) /. 1e9)

(** Seconds of a single run (for long workloads). Recorded as a
    [bench.wall] telemetry span when recording is on (SIC_PROFILE=FILE). *)
let wall (fn : unit -> 'a) : 'a * float =
  let ctx = Obs.span_open () in
  let t0 = Obs.now_ns () in
  let r = fn () in
  let dt = float_of_int (Obs.now_ns () - t0) /. 1e9 in
  Obs.span_close ctx ~name:"bench.wall" [ ("seconds", Obs.Float dt) ];
  (r, dt)

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let row fmt = Printf.printf fmt

(** Write a [BENCH_*.json] record: one JSON object, through the shared
    artifact writer, so strings are JSON-escaped and a non-finite number
    is [null]. *)
let write_json path fields =
  Sic_obs.Artifact.save path (Sic_obs.Json.to_string (Sic_obs.Json.Obj fields) ^ "\n");
  row "wrote %s\n" path
