(** Tests for the campaign orchestrator (lib/fleet): forked job execution,
    -j independence of the resulting database, crash isolation and the
    rank-subset acceptance property. *)

module Counts = Sic_coverage.Counts
module Line = Sic_coverage.Line_coverage
module Db = Sic_db.Db
module Fleet = Sic_fleet.Fleet
module Profile = Sic_sim.Profile
open Helpers

let instrumented name c =
  let ic, _ = Line.instrument c in
  (name, lower ic)

let mk_jobs ?(backend = Fleet.Compiled) ?(budget = 200) ?(sample_every = 0) seeds =
  let _, low = instrumented "gcd" (gcd_circuit ()) in
  List.mapi
    (fun i seed ->
      {
        Fleet.index = i;
        design = "gcd";
        circuit = low;
        circuit_hash = "-";
        backend;
        seed;
        lane_seeds = [||];
        budget;
        wave = 1;
        scan_width = 8;
        sample_every;
        profile = false;
        covers = [];
        corpus = [];
      })
    seeds

let test_run_jobs_parallel_equals_serial () =
  let job_list = mk_jobs [ 11; 22; 33; 44 ] in
  let counts_of results =
    List.map
      (fun (j, r) ->
        match r with
        | Ok res -> (j.Fleet.index, res.Fleet.counts)
        | Error why -> Alcotest.fail ("job failed: " ^ why))
      results
  in
  let serial = counts_of (Fleet.run_jobs ~jobs:1 job_list) in
  let parallel = counts_of (Fleet.run_jobs ~jobs:3 job_list) in
  Alcotest.(check (list int)) "results in input order" [ 0; 1; 2; 3 ]
    (List.map fst parallel);
  List.iter2
    (fun (i, a) (_, b) ->
      Alcotest.(check bool) (Printf.sprintf "job %d counts identical" i) true
        (Counts.equal a b))
    serial parallel;
  (* and both match an in-process execution: determinism in the seed *)
  List.iter2
    (fun job (i, c) ->
      Alcotest.(check bool) (Printf.sprintf "job %d = in-process run" i) true
        (Counts.equal (Fleet.run_job job).Fleet.counts c))
    job_list serial

let test_run_jobs_crash_isolated () =
  let job_list = mk_jobs [ 1; 2; 3 ] in
  let results =
    Fleet.run_jobs ~jobs:2 ~retries:0
      ~inject_crash:(fun j -> j.Fleet.index = 1)
      job_list
  in
  List.iter
    (fun (j, r) ->
      match (j.Fleet.index, r) with
      | 1, Error why ->
          Alcotest.(check bool) "crash reported as signal" true
            (String.length why > 0)
      | 1, Ok _ -> Alcotest.fail "crashed job reported ok"
      | i, Error why -> Alcotest.fail (Printf.sprintf "job %d failed: %s" i why)
      | _, Ok _ -> ())
    results;
  (* a crash that stops being injected is healed by the retry *)
  let first = ref true in
  let healed =
    Fleet.run_jobs ~jobs:1 ~retries:1
      ~inject_crash:(fun _ ->
        if !first then (
          first := false;
          true)
        else false)
      (mk_jobs [ 5 ])
  in
  match healed with
  | [ (_, Ok _) ] -> ()
  | [ (_, Error why) ] -> Alcotest.fail ("retry did not heal transient crash: " ^ why)
  | _ -> Alcotest.fail "unexpected result shape"

let test_run_job_timeline () =
  let module Timeline = Sic_coverage.Timeline in
  (match mk_jobs ~sample_every:50 [ 7 ] with
  | [ job ] -> (
      let res = Fleet.run_job job in
      match res.Fleet.timeline with
      | None -> Alcotest.fail "no timeline recorded with sample_every > 0"
      | Some tl ->
          Alcotest.(check bool) "last sample covers the whole budget" true
            (Timeline.last_at tl >= job.Fleet.budget);
          Alcotest.(check int) "final sample matches the counts"
            (Counts.covered_points res.Fleet.counts)
            (Timeline.final_covered tl);
          let rec monotone = function
            | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
            | _ -> true
          in
          Alcotest.(check bool) "covered never decreases" true
            (monotone tl.Timeline.samples))
  | _ -> assert false);
  (* sample_every = 0 is the untouched hot path: no timeline at all *)
  match (Fleet.run_job (List.hd (mk_jobs [ 7 ]))).Fleet.timeline with
  | None -> ()
  | Some _ -> Alcotest.fail "timeline recorded with sample_every = 0"

let test_bmc_job () =
  let _, low = instrumented "fsm" (fst (fsm_circuit ())) in
  let job =
    {
      Fleet.index = 0;
      design = "fsm";
      circuit = low;
      circuit_hash = "-";
      backend = Fleet.Bmc;
      seed = 0;
      lane_seeds = [||];
      budget = 4;
      wave = 1;
      scan_width = 8;
      sample_every = 0;
      profile = false;
      covers = [];
      corpus = [];
    }
  in
  let res = Fleet.run_job job in
  let pts = Counts.to_sorted_list res.Fleet.counts in
  Alcotest.(check bool) "bmc reports every point" true (pts <> []);
  List.iter
    (fun (n, v) ->
      Alcotest.(check bool) (n ^ " is 0/1") true (v = 0 || v = 1))
    pts;
  Alcotest.(check bool) "some point reachable" true (List.exists (fun (_, v) -> v = 1) pts)

let small_spec ~jobs =
  {
    Fleet.designs =
      [ instrumented "gcd" (gcd_circuit ()); instrumented "fsm" (fst (fsm_circuit ())) ];
    waves = [ [ Fleet.Compiled ]; [ Fleet.Fuzz ] ];
    seeds = 2;
    lanes = 1;
    cycles = 150;
    execs = 40;
    bound = 5;
    scan_width = 8;
    master_seed = 42;
    jobs;
    timeout_s = None;
    retries = 1;
    threshold = 1;
    timeline_every = 50;
    profile = false;
  }

let manifest_view db =
  List.map
    (fun r ->
      ( r.Db.id,
        r.Db.design,
        r.Db.backend,
        r.Db.seed,
        r.Db.wave,
        (match r.Db.status with Db.Run_ok -> "ok" | Db.Run_failed _ -> "failed") ))
    (Db.runs db)

let test_campaign_j_independent () =
  let dir1 = fresh_dir "fleet_j1" and dir4 = fresh_dir "fleet_j4" in
  let db1 = Db.init dir1 and db4 = Db.init dir4 in
  let s1 = Fleet.run_campaign ~db:db1 (small_spec ~jobs:1) in
  let s4 = Fleet.run_campaign ~db:db4 (small_spec ~jobs:4) in
  Alcotest.(check int) "same job count" s1.Fleet.total_jobs s4.Fleet.total_jobs;
  (* a design wave 0 covers completely has no fuzz jobs to run in wave 1 *)
  Alcotest.(check int) "all ok or skipped (j1)" s1.Fleet.total_jobs (s1.Fleet.ok + s1.Fleet.skipped);
  Alcotest.(check int) "all ok or skipped (j4)" s4.Fleet.total_jobs (s4.Fleet.ok + s4.Fleet.skipped);
  Alcotest.(check int) "same jobs skipped" s1.Fleet.skipped s4.Fleet.skipped;
  Alcotest.(check int) "both waves ran" 2 s4.Fleet.waves_run;
  Alcotest.(check bool) "wave 2 instrumented fewer points" true (s4.Fleet.removed_points > 0);
  (* the database contents are independent of -j: same manifest modulo
     wall time, byte-identical aggregate cache *)
  Alcotest.(check bool) "same runs recorded" true (manifest_view db1 = manifest_view db4);
  Alcotest.(check bool) "aggregates equal" true
    (Counts.equal (Db.aggregate db1) (Db.aggregate db4));
  Alcotest.(check string) "aggregate.cnt byte-identical"
    (read_file (Filename.concat dir1 "aggregate.cnt"))
    (read_file (Filename.concat dir4 "aggregate.cnt"));
  (* ... and so are the persisted convergence timelines *)
  let tl_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tl")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "timelines were persisted" true (tl_files dir1 <> []);
  Alcotest.(check (list string)) "same timeline files" (tl_files dir1) (tl_files dir4);
  List.iter
    (fun f ->
      Alcotest.(check string) (f ^ " byte-identical")
        (read_file (Filename.concat dir1 f))
        (read_file (Filename.concat dir4 f)))
    (tl_files dir1);
  (* acceptance: the ranked subset's merged coverage equals the aggregate's *)
  let picked = Db.rank db4 in
  Alcotest.(check bool) "rank returns a subset" true
    (List.length picked <= List.length (Db.ok_runs db4));
  let subset = Counts.merge (List.map (Db.load_counts db4) picked) in
  Alcotest.(check (list string)) "rank subset covers the aggregate"
    (Counts.covered (Db.aggregate db4))
    (Counts.covered subset)

let test_campaign_crash_survival () =
  let dir = fresh_dir "fleet_crash" in
  let db = Db.init dir in
  let spec = { (small_spec ~jobs:2) with Fleet.waves = [ [ Fleet.Compiled ] ]; retries = 1 } in
  let s = Fleet.run_campaign ~inject_crash:(fun i -> i = 0) ~db spec in
  Alcotest.(check int) "campaign completed every job" s.Fleet.total_jobs
    (s.Fleet.ok + s.Fleet.failed);
  Alcotest.(check int) "exactly one failed run" 1 s.Fleet.failed;
  let failed =
    List.filter (fun r -> match r.Db.status with Db.Run_failed _ -> true | _ -> false) (Db.runs db)
  in
  Alcotest.(check int) "failed run recorded in the manifest" 1 (List.length failed);
  (* the crashed job is the first one enumerated *)
  (match failed with
  | [ r ] -> Alcotest.(check string) "first job crashed" "r0001" r.Db.id
  | _ -> ());
  Alcotest.(check bool) "surviving runs still aggregated" true
    (Counts.covered (Db.aggregate db) <> [])

(* a profiled job ships its engine profile through the result pipe
   without disturbing the coverage counts *)
let test_profile_over_pipe () =
  let job = { (List.hd (mk_jobs [ 5 ])) with Fleet.profile = true } in
  let r = Fleet.run_job job in
  let dp =
    match r.Fleet.prof with
    | Some d -> d
    | None -> Alcotest.fail "profiled job returned no profile"
  in
  Alcotest.(check bool) "profile saw the run" true
    (Array.exists (fun (row : Profile.row) -> row.Profile.hits > 0) dp.Profile.rows);
  (match Fleet.decode (Fleet.encode_ok r) with
  | Ok { Fleet.outcome = Ok r'; _ } -> (
      match r'.Fleet.prof with
      | Some d ->
          Alcotest.(check string) "profile survives the pipe byte-exactly"
            (Profile.to_string [ dp ])
            (Profile.to_string [ d ])
      | None -> Alcotest.fail "profile lost in decode")
  | Ok { Fleet.outcome = Error e; _ } | Error e -> Alcotest.fail e);
  let plain = Fleet.run_job (List.hd (mk_jobs [ 5 ])) in
  Alcotest.(check bool) "counts unaffected by profiling" true
    (Counts.equal r.Fleet.counts plain.Fleet.counts)

(* the campaign's merged profile is as -j independent as its database *)
let test_campaign_profile_j_independent () =
  let dir1 = fresh_dir "fleet_prof_j1" and dir3 = fresh_dir "fleet_prof_j3" in
  let spec ~jobs =
    {
      (small_spec ~jobs) with
      Fleet.waves = [ [ Fleet.Compiled; Fleet.Essent ] ];
      profile = true;
    }
  in
  let s1 = Fleet.run_campaign ~db:(Db.init dir1) (spec ~jobs:1) in
  let s3 = Fleet.run_campaign ~db:(Db.init dir3) (spec ~jobs:3) in
  Alcotest.(check bool) "campaign produced a profile" true (s1.Fleet.profile <> []);
  Alcotest.(check string) "merged profile bytes independent of -j"
    (Profile.to_string s1.Fleet.profile)
    (Profile.to_string s3.Fleet.profile);
  (* 2 designs x 2 backends x 2 seeds of the same instrumented circuit
     fold together: each design's section accumulates all four runs *)
  List.iter
    (fun (d : Profile.design_profile) ->
      Alcotest.(check bool)
        (d.Profile.design ^ " folded several runs") true
        (d.Profile.cycles >= 4 * (small_spec ~jobs:1).Fleet.cycles))
    s1.Fleet.profile

(* a lane job is k solo runs advanced bit-parallel: each lane's counts
   equal the solo compiled run's over the same seed, and the extra lanes
   survive the result pipe *)
let test_lanes_job_over_pipe () =
  let seeds = [ 11; 22; 33 ] in
  let lane_job =
    match mk_jobs ~backend:Fleet.Lanes [ List.hd seeds ] with
    | [ j ] -> { j with Fleet.lane_seeds = Array.of_list (List.tl seeds) }
    | _ -> assert false
  in
  let r = Fleet.run_job lane_job in
  Alcotest.(check int) "one extra counts map per extra lane" 2
    (List.length r.Fleet.lane_extra);
  Alcotest.(check int) "sim_cycles = budget x lanes" (3 * lane_job.Fleet.budget)
    r.Fleet.sim_cycles;
  List.iteri
    (fun l (seed, lane_counts) ->
      let solo = Fleet.run_job (List.hd (mk_jobs [ seed ])) in
      Alcotest.(check bool) (Printf.sprintf "lane %d equals the solo compiled run" l) true
        (Counts.equal solo.Fleet.counts lane_counts))
    (List.combine seeds (r.Fleet.counts :: r.Fleet.lane_extra));
  match Fleet.decode (Fleet.encode_ok r) with
  | Ok { Fleet.outcome = Ok r'; _ } ->
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "lane counts survive the pipe" true (Counts.equal a b))
        (r.Fleet.counts :: r.Fleet.lane_extra)
        (r'.Fleet.counts :: r'.Fleet.lane_extra)
  | Ok { Fleet.outcome = Error e; _ } | Error e -> Alcotest.fail e

(* the parent hands a result on only when it is whole and this binary's
   own: every strict prefix of a real message, bytes that are not a
   Marshal value, a Marshal value with a byte after it, and a heartbeat
   all decode to [Error], and none of them raises *)
let test_decode_rejects_partial_and_foreign () =
  let lane_result =
    match mk_jobs ~backend:Fleet.Lanes [ 11 ] with
    | [ j ] -> Fleet.run_job { j with Fleet.lane_seeds = [| 22; 33 |] }
    | _ -> assert false
  in
  let failed =
    Marshal.to_string (Fleet.Result { Fleet.outcome = Error "boom"; telemetry = None }) []
  in
  let rejects what payload =
    match Fleet.decode payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s decoded" what
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  List.iter
    (fun (what, payload, expect) ->
      (match Fleet.decode payload with
      | Ok { Fleet.outcome; _ } ->
          Alcotest.(check bool) (what ^ ": the whole payload decodes") true (expect outcome)
      | Error e -> Alcotest.failf "%s: %s" what e);
      for n = 0 to String.length payload - 1 do
        rejects (Printf.sprintf "%s cut to %d bytes" what n) (String.sub payload 0 n)
      done)
    [
      ( "lane result",
        Fleet.encode_ok lane_result,
        function
        | Ok r -> List.length r.Fleet.lane_extra = 2
        | Error _ -> false );
      ("failed result", failed, fun o -> o = Error "boom");
    ];
  rejects "a counts text body" (Counts.to_string lane_result.Fleet.counts);
  rejects "a one-byte body" "x";
  rejects "a body longer than its Marshal value" (failed ^ "x");
  rejects "a heartbeat" (Marshal.to_string (Fleet.Heartbeat { cycles = 1; covered = 1 }) [])

(* the database is a function of (designs, seeds, master seed) only:
   packing runs into lane jobs — at any -j — moves no byte of it, and the
   lane runs are byte-identical to a solo compiled campaign's *)
let test_campaign_lanes_independent () =
  let spec ~jobs ~lanes ~waves = { (small_spec ~jobs) with Fleet.waves; seeds = 5; lanes } in
  let dir_l1 = fresh_dir "fleet_lanes1" and dir_l3 = fresh_dir "fleet_lanes3" in
  let dir_solo = fresh_dir "fleet_lanes_solo" in
  let db_l1 = Db.init dir_l1 and db_l3 = Db.init dir_l3 and db_solo = Db.init dir_solo in
  let s1 = Fleet.run_campaign ~db:db_l1 (spec ~jobs:1 ~lanes:1 ~waves:[ [ Fleet.Lanes ] ]) in
  let s3 = Fleet.run_campaign ~db:db_l3 (spec ~jobs:3 ~lanes:3 ~waves:[ [ Fleet.Lanes ] ]) in
  let _ =
    Fleet.run_campaign ~db:db_solo (spec ~jobs:2 ~lanes:1 ~waves:[ [ Fleet.Compiled ] ])
  in
  (* 5 runs per design pack into ceil(5/3) = 2 jobs at 3 lanes, 5 at 1 *)
  Alcotest.(check int) "lane packing shrinks the job list" (2 * 2) s3.Fleet.total_jobs;
  Alcotest.(check int) "one job per run unpacked" (2 * 5) s1.Fleet.total_jobs;
  Alcotest.(check int) "aggregate simulated cycles independent of packing"
    s1.Fleet.sim_cycles s3.Fleet.sim_cycles;
  Alcotest.(check bool) "same runs recorded" true (manifest_view db_l1 = manifest_view db_l3);
  Alcotest.(check string) "aggregate.cnt byte-identical"
    (read_file (Filename.concat dir_l1 "aggregate.cnt"))
    (read_file (Filename.concat dir_l3 "aggregate.cnt"));
  List.iter
    (fun (r : Db.run) ->
      Alcotest.(check string) (r.Db.id ^ ".cnt byte-identical")
        (read_file (Filename.concat dir_l1 (r.Db.id ^ ".cnt")))
        (read_file (Filename.concat dir_l3 (r.Db.id ^ ".cnt"))))
    (Db.ok_runs db_l1);
  List.iter2
    (fun (a : Db.run) (b : Db.run) ->
      Alcotest.(check int) "same seed enumerated" b.Db.seed a.Db.seed;
      Alcotest.(check string) (a.Db.id ^ " equals the solo compiled run")
        (read_file (Filename.concat dir_solo (b.Db.id ^ ".cnt")))
        (read_file (Filename.concat dir_l3 (a.Db.id ^ ".cnt"))))
    (Db.ok_runs db_l3) (Db.ok_runs db_solo)

(* ------------------------------------------------------------------ *)
(* The worker pool                                                      *)
(* ------------------------------------------------------------------ *)

module Obs = Sic_obs.Obs
module Replay = Sic_sim.Replay
module Timeline = Sic_coverage.Timeline

(* [f] with telemetry recording from a clean slate, off again after *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* every field of a result that is a function of the job *)
let result_view (r : Fleet.job_result) =
  ( Counts.to_string r.Fleet.counts,
    List.map Counts.to_string r.Fleet.lane_extra,
    r.Fleet.sim_cycles,
    Option.map Timeline.to_string r.Fleet.timeline,
    Option.map (fun d -> Profile.to_string [ d ]) r.Fleet.prof,
    List.map (fun (name, tr) -> name ^ "\n" ^ Replay.to_string tr) r.Fleet.witnesses )

(* a worker's outcome is what in-process run_job returns, or the text of
   the exception it raises *)
let check_same_as_in_process what job outcome =
  let in_process =
    match Fleet.run_job job with
    | r -> Ok (result_view r)
    | exception e -> Error (Printexc.to_string e)
  in
  match (Result.map result_view outcome, in_process) with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: job %d = in-process run_job" what job.Fleet.index)
        true (a = b)
  | Error a, Error b ->
      Alcotest.(check string)
        (Printf.sprintf "%s: job %d fails as in process" what job.Fleet.index)
        b a
  | Error why, Ok _ -> Alcotest.failf "%s: job %d failed: %s" what job.Fleet.index why
  | Ok _, Error why -> Alcotest.failf "%s: job %d succeeded, in process: %s" what job.Fleet.index why

(* one of each job shape a worker can carry state between: sampled and
   profiled compiled runs, a fuzz run with a corpus, a reachable and an
   unreachable BMC witness job, a lane job, and a job whose run_job raises
   (an FPGA scan chain of width 0) *)
let mixed_jobs () =
  let closefix = lower (fst (Line.instrument (Sic_designs.Closefix.circuit ()))) in
  let base = List.hd (mk_jobs [ 7 ]) in
  let bmc covers =
    {
      base with
      Fleet.design = "closefix";
      circuit = closefix;
      backend = Fleet.Bmc_witness;
      budget = 8;
      covers;
    }
  in
  List.mapi
    (fun index j -> { j with Fleet.index })
    [
      { base with Fleet.sample_every = 50 };
      { base with Fleet.profile = true; seed = 8 };
      {
        base with
        Fleet.backend = Fleet.Fuzz;
        budget = 40;
        sample_every = 10;
        corpus = [ Bytes.of_string "\x01\x02\x03\x04\x05\x06\x07\x08" ];
      };
      bmc [ "deep" ];
      bmc [ "dead" ];
      { base with Fleet.backend = Fleet.Lanes; seed = 9; lane_seeds = [| 10; 11 |] };
      { base with Fleet.backend = Fleet.Fpga; scan_width = 0 };
    ]

(* jobs run one after another in one worker return exactly what
   in-process run_job returns for each, in either order, and each ships
   its own telemetry only *)
let test_worker_reuse_changes_nothing () =
  let jobs = mixed_jobs () in
  (match Fleet.run_job (List.nth jobs 4) with
  | { Fleet.witnesses = []; counts; _ } ->
      Alcotest.(check int) "the dead point is unreachable" 0 (Counts.get counts "dead")
  | _ -> Alcotest.fail "the dead point has a witness");
  List.iter
    (fun (what, order) ->
      with_obs (fun () ->
          let results = Fleet.run_jobs ~jobs:1 ~retries:0 order in
          List.iter (fun (job, outcome) -> check_same_as_in_process what job outcome) results;
          Alcotest.(check int) (what ^ ": one worker") 1
            (Obs.counter_value "fleet.workers_spawned");
          let job_spans (l : Obs.lane) =
            List.filter_map
              (function
                | Obs.Span { name = "fleet.job"; args; _ } -> Some (List.assoc "job" args)
                | _ -> None)
              l.Obs.lane_events
          in
          let lanes = Obs.lanes () in
          Alcotest.(check int) (what ^ ": one lane per job") (List.length jobs)
            (List.length lanes);
          List.iter2
            (fun (job, _) (l : Obs.lane) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: job %d's lane holds its own fleet.job span only" what
                   job.Fleet.index)
                true
                (job_spans l = [ Obs.Int job.Fleet.index ]))
            results lanes))
    [ ("forward", jobs); ("reversed", List.rev jobs) ]

(* every job's worker reports its progress while it runs: each sampled
   job gets at least one heartbeat (the first is never throttled), and
   each reports work within the job's budget *)
let test_heartbeats_reach_on_event () =
  let jobs = mk_jobs ~sample_every:50 [ 1; 2; 3 ] in
  let beats = Hashtbl.create 8 in
  let on_event = function
    | Fleet.Job_heartbeat { job; hb_cycles; _ } -> Hashtbl.add beats job.Fleet.index hb_cycles
    | _ -> ()
  in
  List.iter
    (fun (job, outcome) -> check_same_as_in_process "heartbeats" job outcome)
    (Fleet.run_jobs ~jobs:2 ~on_event jobs);
  List.iter
    (fun (job : Fleet.job) ->
      let cycles = Hashtbl.find_all beats job.Fleet.index in
      Alcotest.(check bool)
        (Printf.sprintf "job %d got a heartbeat" job.Fleet.index)
        true (cycles <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d heartbeat %d within (0, %d]" job.Fleet.index c
               job.Fleet.budget)
            true
            (0 < c && c <= job.Fleet.budget))
        cycles)
    jobs

(* each worker's counters cross the pipe with its result and add up in
   the parent *)
let test_worker_counters_absorbed () =
  with_obs (fun () ->
      let results = Fleet.run_jobs ~jobs:2 (mk_jobs ~backend:Fleet.Fuzz ~budget:30 [ 1; 2 ]) in
      List.iter
        (fun (job, outcome) ->
          if Result.is_error outcome then Alcotest.failf "job %d failed" job.Fleet.index)
        results;
      Alcotest.(check int) "fuzz.execs summed over both workers" 60
        (Obs.counter_value "fuzz.execs"))

(* no child of this process is left, running or unreaped *)
let check_no_children what =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a worker is still running" what
  | pid, _ -> Alcotest.failf "%s: worker %d was left unreaped" what pid

(* long jobs, far past any timeout below: the fuzz job writes heartbeats
   as it goes; the simulation job, with sampling off, writes nothing
   until its result *)
let long_job ?(backend = Fleet.Fuzz) index =
  { (List.hd (mk_jobs ~backend ~budget:1_000_000_000 [ 9 ])) with Fleet.index }

(* a worker that dies (crash or timeout kill) fails only its own job and
   is replaced for the jobs still waiting *)
let test_dead_worker_replaced () =
  let check_rest what failing expect_prefix results =
    List.iter
      (fun (job, outcome) ->
        if job.Fleet.index = failing then
          match outcome with
          | Error why ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %S starts with %S" what why expect_prefix)
                true
                (String.starts_with ~prefix:expect_prefix why)
          | Ok _ -> Alcotest.failf "%s: job %d reported ok" what failing
        else check_same_as_in_process what job outcome)
      results;
    Alcotest.(check int) (what ^ ": one fresh worker after the death") 2
      (Obs.counter_value "fleet.workers_spawned")
  in
  with_obs (fun () ->
      Fleet.run_jobs ~jobs:1 ~retries:0
        ~inject_crash:(fun j -> j.Fleet.index = 1)
        (mk_jobs [ 1; 2; 3; 4 ])
      |> check_rest "crash" 1 "worker killed by signal SIGKILL");
  with_obs (fun () ->
      Fleet.run_jobs ~jobs:1 ~retries:0 ~timeout_s:0.5
        (long_job 0 :: List.tl (mk_jobs [ 1; 2; 3 ]))
      |> check_rest "timeout" 0 "timeout after")

(* run_jobs reaps its whole pool on every way out *)
let test_no_worker_outlives_run_jobs () =
  ignore (Fleet.run_jobs ~jobs:2 (mk_jobs [ 1; 2; 3 ]));
  check_no_children "normal return";
  ignore
    (Fleet.run_jobs ~jobs:2 ~retries:0 ~inject_crash:(fun j -> j.Fleet.index = 0)
       (mk_jobs [ 1; 2; 3 ]));
  check_no_children "after a crash";
  ignore
    (Fleet.run_jobs ~jobs:2 ~retries:0 ~timeout_s:0.3
       (List.hd (mk_jobs [ 1 ]) :: [ long_job 1 ]));
  check_no_children "after a timeout";
  (* raising from the second dispatch leaves the first worker busy, on a
     job that never writes to its pipe: only a kill ends it *)
  let started = ref 0 in
  let on_event = function
    | Fleet.Job_started _ ->
        incr started;
        if !started = 2 then raise Exit
    | _ -> ()
  in
  (match
     Fleet.run_jobs ~jobs:2 ~on_event
       (long_job ~backend:Fleet.Compiled 0 :: List.tl (mk_jobs [ 1; 2; 3 ]))
   with
  | _ -> Alcotest.fail "on_event's exception was swallowed"
  | exception Exit -> ());
  check_no_children "on_event raised";
  (match
     Fleet.run_jobs ~jobs:1
       ~on_event:(function Fleet.Job_finished _ -> raise Exit | _ -> ())
       (mk_jobs [ 1; 2 ])
   with
  | _ -> Alcotest.fail "on_event's exception was swallowed"
  | exception Exit -> ());
  check_no_children "on_event raised at a finish"

let tests =
  [
    Alcotest.test_case "run_jobs: parallel = serial" `Quick test_run_jobs_parallel_equals_serial;
    Alcotest.test_case "run_jobs: crash isolation + retry" `Quick test_run_jobs_crash_isolated;
    Alcotest.test_case "run_jobs: reusing a worker changes no result" `Quick
      test_worker_reuse_changes_nothing;
    Alcotest.test_case "run_jobs: a dead worker is replaced" `Quick test_dead_worker_replaced;
    Alcotest.test_case "run_jobs: no worker outlives the call" `Quick
      test_no_worker_outlives_run_jobs;
    Alcotest.test_case "run_jobs: heartbeats reach on_event" `Quick
      test_heartbeats_reach_on_event;
    Alcotest.test_case "run_jobs: worker counters absorbed" `Quick test_worker_counters_absorbed;
    Alcotest.test_case "run_job: bmc 0/1 semantics" `Quick test_bmc_job;
    Alcotest.test_case "run_job: timeline sampling" `Quick test_run_job_timeline;
    Alcotest.test_case "run_job: profile over the result pipe" `Quick test_profile_over_pipe;
    Alcotest.test_case "run_job: lane job = k solo runs, over the pipe" `Quick
      test_lanes_job_over_pipe;
    Alcotest.test_case "decode: never trusts partial or foreign bytes" `Quick
      test_decode_rejects_partial_and_foreign;
    Alcotest.test_case "campaign: db independent of -j" `Quick test_campaign_j_independent;
    Alcotest.test_case "campaign: db independent of --lanes" `Quick
      test_campaign_lanes_independent;
    Alcotest.test_case "campaign: profile independent of -j" `Quick
      test_campaign_profile_j_independent;
    Alcotest.test_case "campaign: survives worker crash" `Quick test_campaign_crash_survival;
  ]
