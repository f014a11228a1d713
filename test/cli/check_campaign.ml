(* CLI regression for [sic campaign] / [sic db]: the coverage database a
   campaign produces must be byte-for-byte independent of -j (on a plain
   campaign, and on one whose waves carry every result shape a worker
   ships back: lane jobs, timelines, fuzz and BMC-witness runs, and on one
   whose later waves have no points left to run), a crashed
   worker must be recorded as a failed run without killing the campaign,
   and [sic db rank] must pick a run subset whose merged coverage equals
   the full aggregate.

   Usage: check_campaign.exe SIC.exe *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_campaign: " ^ m); exit 1) fmt

let sic = ref "sic"

let run_expect expected fmt =
  Printf.ksprintf
    (fun args ->
      let cmd = Printf.sprintf "%s %s >> check_campaign.log 2>&1" (Filename.quote !sic) args in
      let rc = Sys.command cmd in
      if rc <> expected then fail "command exited %d (wanted %d): sic %s" rc expected args)
    fmt

let run fmt = run_expect 0 fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let campaign_args =
  "--design gcd --design fifo --design counter --backend compiled --backend interp \
   --seeds 1 --cycles 300 --seed 7"

(* few cycles and execs leave points open for every wave after the first *)
let shapes_args =
  "--design counter --design uart --waves 'interp+lanes,fuzz,bmc-witness' --lanes 2 \
   --seeds 3 --cycles 5 --execs 20 --seed 7"

(* default cycles cover every point of both designs in wave 0, so the
   removal pass leaves the fuzz and BMC-witness waves nothing to run *)
let skip_args =
  "--design counter --design uart --waves 'interp+lanes,fuzz,bmc-witness' --lanes 2 \
   --seeds 3 --seed 7 --profile=skip_profile.ndjson"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* run [args] at -j 1 and -j 4 into [<name>_j1] and [<name>_j4]: every
   counts and timeline file — per-run and the cached aggregate — must be
   byte-identical, and the manifests agree on everything but wall time.
   Returns the -j 4 database and the -j 1 run count. *)
let check_j_independent name args =
  let d1 = name ^ "_j1" and d4 = name ^ "_j4" in
  run "campaign --db %s -j 1 %s" d1 args;
  run "campaign --db %s -j 4 %s" d4 args;
  let cnt_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".cnt" || Filename.check_suffix f ".tl")
    |> List.sort compare
  in
  let f1 = cnt_files d1 and f4 = cnt_files d4 in
  if f1 <> f4 then fail "different counts files: [%s] vs [%s]" (String.concat " " f1) (String.concat " " f4);
  if not (List.mem "aggregate.cnt" f1) then fail "no aggregate.cnt in %s" d1;
  if not (List.exists (fun f -> Filename.check_suffix f ".tl") f1) then
    fail "no convergence timelines persisted in %s" d1;
  List.iter
    (fun f ->
      let a = read_file (Filename.concat d1 f) and b = read_file (Filename.concat d4 f) in
      if a <> b then fail "%s: %s differs between -j 1 and -j 4" name f)
    f1;
  let view db = List.map (fun r -> { r with Db.wall_us = 0. }) (Db.runs db) in
  let db1 = Db.load d1 and db4 = Db.load d4 in
  if view db1 <> view db4 then fail "%s: manifests differ between -j 1 and -j 4" name;
  (db4, List.length (Db.runs db1))

let () =
  (match Sys.argv with [| _; exe |] -> sic := exe | _ -> fail "usage: check_campaign.exe SIC.exe");
  (* 3 designs x 2 backends *)
  let db4, runs = check_j_independent "db" campaign_args in
  if runs <> 6 then fail "expected 6 runs (3 designs x 2 backends), got %d" runs;
  (* 2 designs x 4 backends over 3 waves x 3 runs each *)
  let _, runs = check_j_independent "shapes" shapes_args in
  if runs <> 24 then fail "expected 24 runs (2 designs x 4 backends x 3 seeds), got %d" runs;
  (* jobs of designs with no points left are skipped and counted, and
     still draw their seeds: the 12 wave-0 runs match the shapes case's *)
  let dbs, runs = check_j_independent "skip" skip_args in
  if runs <> 12 then fail "expected 12 runs (wave 0 only), got %d" runs;
  let seeds db = List.map (fun r -> (r.Db.design, r.Db.backend, r.Db.seed)) (Db.runs db) in
  if seeds dbs <> List.filteri (fun i _ -> i < 12) (seeds (Db.load "shapes_j4")) then
    fail "skipping jobs moved the seeds of the runs that ran";
  if not (contains (read_file "skip_profile.ndjson") "\"name\":\"fleet.jobs_skipped\",\"value\":12")
  then fail "fleet.jobs_skipped does not count the 12 skipped jobs";
  (* with --progress, the last status line counts the skipped jobs as done
     and gives no ETA *)
  let rc =
    Sys.command
      (Printf.sprintf
         "%s campaign --db skip_progress --design counter --design uart --waves \
          'interp+lanes,fuzz,bmc-witness' --lanes 2 --seeds 3 --progress \
          > /dev/null 2> skip_progress.txt"
         (Filename.quote !sic))
  in
  if rc <> 0 then fail "campaign --progress exited %d" rc;
  let last =
    String.split_on_char '\r' (String.trim (read_file "skip_progress.txt")) |> List.rev |> List.hd
  in
  if not (contains last "campaign 22/22 done (12 skipped), ") || contains last "ETA" then
    fail "last progress line is %S" last;
  (* an injected worker crash: recorded as a failed run, campaign completes
     — and the exhausted retries surface as a nonzero exit for CI *)
  run_expect 1
    "campaign --db db_crash -j 2 --inject-crash 0 --retries 1 --design gcd --design counter \
     --backend compiled --seeds 1 --cycles 200";
  let dbc = Db.load "db_crash" in
  let failed =
    List.filter (fun r -> match r.Db.status with Db.Run_failed _ -> true | _ -> false) (Db.runs dbc)
  in
  if List.length failed <> 1 then fail "expected 1 failed run, got %d" (List.length failed);
  if List.length (Db.ok_runs dbc) <> 1 then
    fail "expected the surviving job to be recorded ok";
  (* the db subcommands run over the result *)
  run "db list db_j4";
  run "db report db_j4 --save-counts db_j4_aggregate.cnt";
  run "db report db_j4 --timeline --html db_j4_report.html";
  if not (Sys.file_exists "db_j4_report.html") then fail "db report --html wrote nothing";
  let html = read_file "db_j4_report.html" in
  if not (contains html "coverage convergence") then
    fail "HTML report lacks the convergence-curve section";
  run "db rank db_j4";
  run "db diff db_j4 r0001 r0002";
  if not (Counts.equal (Counts.load "db_j4_aggregate.cnt") (Db.aggregate db4)) then
    fail "exported aggregate differs from the library view";
  (* rank: the picked subset's merged coverage equals the aggregate's *)
  let picked = Db.rank db4 in
  if picked = [] then fail "rank picked nothing";
  let subset = Counts.merge (List.map (Db.load_counts db4) picked) in
  if Counts.covered subset <> Counts.covered (Db.aggregate db4) then
    fail "rank subset does not cover the aggregate";
  if List.length picked > List.length (Db.ok_runs db4) then fail "rank picked too many runs";
  (* scan --db: §5.3 removal against the database before instrumentation *)
  run "scan --design gcd -m line --width 8 --db db_j4 --threshold 1";
  print_endline "check_campaign: ok"
