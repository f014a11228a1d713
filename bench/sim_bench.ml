(** [bench sim]: per-cycle simulation throughput of every software backend
    on the Table 2 workloads, written to BENCH_sim.json for CI tracking.

    For each design we record one replay trace (so stimulus generation is
    excluded, the §5.1 methodology), then measure ns/cycle for each backend
    replaying that same trace: the interpreter, the word-level engine
    (plain as "compiled", activity-driven as "essent") and the lane engine
    in lockstep. The headline is the word-level engine's median speedup
    over the interpreter. Coverage counts are
    cross-checked across all backends before timing — a backend that
    disagrees with the interpreter is a correctness bug, not a data point.

    SIC_BENCH_SMOKE=1 shrinks the trace lengths and measurement quota so CI
    can run the whole thing in seconds; the JSON layout is identical. *)

module Counts = Sic_coverage.Counts
module Json = Sic_obs.Json
open Sic_sim

let backends : (string * (Sic_ir.Circuit.t -> Backend.t)) list =
  [
    ("interp", Interp.create);
    ("compiled", fun c -> Compiled.create c);
    ("essent", Essent.create);
    (* the bit-parallel engine driven in lockstep: all 62 lanes replay the
       same trace, so its counts join the interp cross-check; its ns/cycle
       row is the cost of one full-width pass (the number the dedicated
       lane section divides by 62) *)
    ("lanes-lockstep", fun c -> Lanes.create c);
  ]

(* fresh backend, one full replay: the counts all backends must agree on *)
let counts_of create low trace =
  let b = create low in
  Replay.replay b trace;
  b.Backend.counts ()

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      let a = List.nth s ((n - 1) / 2) and b = List.nth s (n / 2) in
      (a +. b) /. 2.0

let run () =
  let smoke = Sys.getenv_opt "SIC_BENCH_SMOKE" <> None in
  let cycles = if smoke then 100 else 2_000 in
  let quota = if smoke then 0.05 else 0.5 in
  Timing.header
    (Printf.sprintf "sim: per-cycle backend throughput (%d-cycle traces%s)" cycles
       (if smoke then ", smoke" else ""));
  Timing.row "%-14s %-18s %12s\n" "Design" "Backend" "ns/cycle";
  let results = ref [] in
  let speedups = ref [] in
  List.iter
    (fun (name, _, _, build) ->
      let c, trace = build ~cycles in
      let low = Sic_passes.Compile.lower c in
      Timing.row "%-14s tape: %s\n" name (Compiled.stats (Compiled.build low));
      (* correctness gate: identical coverage counts on every backend *)
      let reference = counts_of Interp.create low trace in
      List.iter
        (fun (bname, create) ->
          if not (Counts.equal reference (counts_of create low trace)) then
            failwith (Printf.sprintf "sim bench: %s disagrees with interp on %s" bname name))
        backends;
      let per_backend =
        List.map
          (fun (bname, create) ->
            let b = create low in
            Replay.replay b trace (* warm-up *);
            let ns =
              Timing.ns_per_run ~quota (fun () -> Replay.replay b trace)
            in
            let ns_cycle = ns /. float_of_int (Replay.cycles trace) in
            Timing.row "%-14s %-18s %12.1f\n" name bname ns_cycle;
            (bname, ns_cycle))
          backends
      in
      results := (name, per_backend) :: !results;
      (match (List.assoc_opt "interp" per_backend, List.assoc_opt "compiled" per_backend) with
      | Some old_ns, Some new_ns when new_ns > 0.0 ->
          let s = old_ns /. new_ns in
          speedups := s :: !speedups;
          Timing.row "%-14s %-18s %11.2fx\n" name "word-level speedup" s
      | _ -> ()))
    Workloads.table2_set;
  let med = median !speedups in
  Timing.row "\nmedian word-level speedup over the interpreter: %.2fx\n" med;
  (* --- the lane engine: 62 independent seeds per tape pass ------------- *)
  (* Replay can't exercise independent lanes (a trace is one stimulus
     stream), so this section measures the real workload both ways: random
     stimulus on the sequential compiled engine vs 62 split-derived
     streams advanced bit-parallel. Before any timing, a per-lane
     differential gate: every lane's counts must equal a solo compiled
     run over the same stream — a lane that disagrees is a correctness
     bug, not a data point. *)
  let lanes_k = 62 in
  let lanes_rows =
    let gate_cycles = if smoke then 20 else 100 in
    let stream seed l = Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.split (Sic_fuzz.Rng.create seed) l) in
    Timing.row "\nlane engine: %d seeds per pass (aggregate lane-cycles vs sequential compiled):\n"
      lanes_k;
    List.map
      (fun (name, _, _, build) ->
        let c, _ = build ~cycles in
        let low = Sic_passes.Compile.lower c in
        (* correctness gate *)
        let lt = Lanes.build ~lanes:lanes_k low in
        Backend.reset_sequence (Lanes.to_backend ~name:"lanes" lt);
        Lanes.run_random lt
          ~streams:(Array.init lanes_k (stream 1234))
          ~cycles:gate_cycles;
        for l = 0 to lanes_k - 1 do
          let b = Compiled.create low in
          Backend.reset_sequence b;
          Backend.random_stimulus ~bits:(stream 1234 l) ~cycles:gate_cycles b;
          if not (Counts.equal (b.Backend.counts ()) (Lanes.lane_counts lt l)) then
            failwith
              (Printf.sprintf "sim bench: lane %d disagrees with solo compiled on %s" l name)
        done;
        (* aggregate throughput: both sides draw their stimulus live, one
           stream per simulated run, fresh seeds per measured iteration *)
        let seedr = ref 0 in
        let lt = Lanes.build ~lanes:lanes_k low in
        Backend.reset_sequence (Lanes.to_backend ~name:"lanes" lt);
        Lanes.run_random lt ~streams:(Array.init lanes_k (stream 0)) ~cycles:1 (* warm-up *);
        let ns_lanes =
          Timing.ns_per_run ~quota (fun () ->
              incr seedr;
              Lanes.run_random lt ~streams:(Array.init lanes_k (stream !seedr)) ~cycles)
        in
        let ns_lane_cycle = ns_lanes /. float_of_int (cycles * lanes_k) in
        let bc = Compiled.create low in
        Backend.reset_sequence bc;
        Backend.random_stimulus ~bits:(stream 0 0) ~cycles:1 bc (* warm-up *);
        let ns_comp =
          Timing.ns_per_run ~quota (fun () ->
              incr seedr;
              Backend.random_stimulus ~bits:(stream !seedr 0) ~cycles bc)
        in
        let ns_comp_cycle = ns_comp /. float_of_int cycles in
        let speedup = if ns_lane_cycle > 0.0 then ns_comp_cycle /. ns_lane_cycle else nan in
        let vf = Lanes.vectorized_fraction lt in
        Timing.row "%-14s %5.1f ns/lane-cycle vs %7.1f sequential: %5.2fx (%.0f%% vectorized)\n"
          name ns_lane_cycle ns_comp_cycle speedup (100. *. vf);
        (name, ns_lane_cycle, ns_comp_cycle, speedup, vf))
      Workloads.table2_set
  in
  (* acceptance gate: the 1-bit-dominated serv core is where lane packing
     must pay — anything below this is a regression in the engine *)
  (match List.find_opt (fun (n, _, _, _, _) -> n = "serv-chisel") lanes_rows with
  | Some (_, _, _, speedup, _) ->
      let floor_ = if smoke then 4.0 else 8.0 in
      if speedup < floor_ then
        failwith
          (Printf.sprintf
             "sim bench: lanes aggregate speedup %.2fx on serv-chisel is below the %.0fx gate"
             speedup floor_)
  | None -> ());
  (* profiler overhead: the word-level engine on the largest workload with
     the hotspot profiler off / counts-only / sampled. "off" must match the
     plain engine within measurement noise — the profiler's entire off-path
     cost is one branch per [run_tape] — and the sampled path is budgeted
     at 10%. The profiled modes run the activity schedule, so their
     reference is the activity engine measured back to back; each mode is
     measured in several interleaved rounds and we keep the per-mode
     minimum, because CPU frequency drifts far more across a long bench
     run than any of these deltas. *)
  let prof_results =
    match Workloads.table2_set with
    | [] -> []
    | (name, _, _, build) :: _ ->
        Timing.row "\nprofiler overhead (%s):\n" name;
        let c, trace = build ~cycles in
        let low = Sic_passes.Compile.lower c in
        Timing.row "%-14s profiled tape: %s\n" name
          (Compiled.stats (Compiled.build ~profile:Compiled.Counts_only low));
        let modes =
          [
            ("profile-baseline", fun () -> Compiled.build ~activity:true low);
            ("profile-off", fun () -> Compiled.build ~activity:true low);
            ("profile-counts", fun () -> Compiled.build ~profile:Compiled.Counts_only low);
            ( "profile-sampled",
              fun () -> Compiled.build ~profile:(Compiled.Sampled 512) low );
          ]
        in
        let built =
          List.map
            (fun (mname, mk) ->
              let b = Compiled.to_backend ~name:mname (mk ()) in
              Replay.replay b trace (* warm-up *);
              (mname, b))
            modes
        in
        let rounds = 6 in
        let best = Hashtbl.create 8 in
        for _ = 1 to rounds do
          List.iter
            (fun (mname, b) ->
              let ns =
                Timing.ns_per_run ~quota:(quota /. float_of_int rounds) (fun () ->
                    Replay.replay b trace)
              in
              let ns_cycle = ns /. float_of_int (Replay.cycles trace) in
              match Hashtbl.find_opt best mname with
              | Some prev when prev <= ns_cycle -> ()
              | _ -> Hashtbl.replace best mname ns_cycle)
            built
        done;
        List.map
          (fun (mname, _) ->
            let ns_cycle = Hashtbl.find best mname in
            Timing.row "%-14s %-18s %12.1f\n" name mname ns_cycle;
            (mname, ns_cycle))
          built
  in
  let prof_ratio m =
    match (List.assoc_opt "profile-off" prof_results, List.assoc_opt m prof_results) with
    | Some off, Some v when off > 0.0 -> v /. off
    | _ -> nan
  in
  (match prof_results with
  | [] -> ()
  | _ ->
      let off_vs_baseline =
        match
          ( List.assoc_opt "profile-off" prof_results,
            List.assoc_opt "profile-baseline" prof_results )
        with
        | Some off, Some base when base > 0.0 -> off /. base
        | _ -> nan
      in
      Timing.row
        "profiler ratios: off-vs-baseline %.3fx, counts %.3fx, sampled %.3fx\n"
        off_vs_baseline (prof_ratio "profile-counts") (prof_ratio "profile-sampled");
      (* hard gates, generous to timer noise in smoke runs *)
      let tol_off = if smoke then 1.50 else 1.05 in
      let tol_sampled = if smoke then 3.0 else 1.10 in
      if off_vs_baseline > tol_off then
        failwith
          (Printf.sprintf "sim bench: profiler-off overhead %.3fx exceeds baseline gate"
             off_vs_baseline);
      if prof_ratio "profile-sampled" > tol_sampled then
        failwith
          (Printf.sprintf "sim bench: sampled profiler overhead %.3fx exceeds gate"
             (prof_ratio "profile-sampled")));
  (* BENCH_sim.json: flat record list plus the headline median *)
  let rows =
    List.concat_map
      (fun (design, per_backend) ->
        List.map
          (fun (bname, ns) ->
            Json.Obj
              [
                ("design", Json.String design);
                ("backend", Json.String bname);
                ("ns_per_cycle", Json.Float ns);
              ])
          per_backend)
      (List.rev !results)
  in
  let profiler =
    match prof_results with
    | [] -> []
    | _ ->
        [
          ( "profiler",
            Json.Obj
              (List.map (fun (mname, ns) -> (mname, Json.Float ns)) prof_results
              @ [
                  ("counts_overhead", Json.Float (prof_ratio "profile-counts"));
                  ("sampled_overhead", Json.Float (prof_ratio "profile-sampled"));
                ]) );
        ]
  in
  let lane_rows =
    List.map
      (fun (design, ns_lane, ns_comp, speedup, vf) ->
        Json.Obj
          [
            ("design", Json.String design);
            ("ns_per_lane_cycle", Json.Float ns_lane);
            ("ns_per_cycle_compiled", Json.Float ns_comp);
            ("speedup_vs_compiled", Json.Float speedup);
            ("vectorized_fraction", Json.Float vf);
          ])
      lanes_rows
  in
  let serv =
    match List.find_opt (fun (n, _, _, _, _) -> n = "serv-chisel") lanes_rows with
    | Some (_, _, _, speedup, _) -> [ ("serv_speedup_vs_compiled", Json.Float speedup) ]
    | None -> []
  in
  Timing.write_json "BENCH_sim.json"
    ([
       ("cycles", Json.Int cycles);
       ("smoke", Json.Bool smoke);
       ("results", Json.List rows);
       ("median_speedup_vs_interp", Json.Float med);
     ]
    @ profiler
    @ [
        ( "lanes",
          Json.Obj
            ([ ("lanes", Json.Int lanes_k); ("results", Json.List lane_rows) ] @ serv) );
      ])
