(** Tests for the persistent coverage database (lib/db): manifest
    round-trips, incremental aggregate maintenance, format versioning,
    run diffs and greedy set-cover ranking. *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db
open Helpers

let add_ok db ~design ~backend ?(seed = 0) points =
  Db.add db ~design ~backend ~workload:"random" ~seed ~cycles:100
    (Ok (Counts.of_list points))

let test_round_trip () =
  let dir = fresh_dir "db_rt" in
  let db = Db.init dir in
  let r1 = add_ok db ~design:"gcd" ~backend:"compiled" [ ("p1", 3); ("p2", 0) ] in
  let r2 = add_ok db ~design:"fifo" ~backend:"interp" ~seed:7 [ ("p1", 1); ("p3", 2) ] in
  let rf =
    Db.add db ~design:"gcd" ~backend:"fuzz" ~workload:"fuzz" ~seed:9 ~cycles:50
      (Error "worker killed by signal SIGKILL")
  in
  Alcotest.(check (list string)) "ids in arrival order" [ "r0001"; "r0002"; "r0003" ]
    (List.map (fun r -> r.Db.id) (Db.runs db));
  (* reload from disk and compare the manifest view *)
  let db' = Db.load dir in
  Alcotest.(check int) "reload sees all runs" 3 (List.length (Db.runs db'));
  Alcotest.(check int) "reload sees ok runs" 2 (List.length (Db.ok_runs db'));
  (match Db.find db' rf.Db.id with
  | Some r -> (
      match r.Db.status with
      | Db.Run_failed why ->
          Alcotest.(check bool) "failure reason kept" true (contains ~needle:"SIGKILL" why)
      | Db.Run_ok -> Alcotest.fail "failed run reloaded as ok")
  | None -> Alcotest.fail "failed run missing after reload");
  (* counts files round-trip, including zero-count points *)
  let c1 = Db.load_counts db' (Option.get (Db.find db' r1.Db.id)) in
  Alcotest.(check bool) "r1 counts round-trip" true
    (Counts.equal c1 (Counts.of_list [ ("p1", 3); ("p2", 0) ]));
  let r2' = Option.get (Db.find db' r2.Db.id) in
  Alcotest.(check string) "metadata survives" "fifo" r2'.Db.design;
  Alcotest.(check int) "seed survives" 7 r2'.Db.seed;
  Alcotest.(check int) "points_covered recorded" 2 r2'.Db.points_covered

let test_aggregate_incremental () =
  let dir = fresh_dir "db_agg" in
  let db = Db.init dir in
  let batches =
    [ [ ("a", 1); ("b", 0) ]; [ ("a", 2); ("c", 5) ]; [ ("b", 1); ("c", 1); ("d", 0) ] ]
  in
  List.iteri
    (fun i pts ->
      ignore (add_ok db ~design:"gcd" ~backend:"compiled" ~seed:i pts);
      (* the incrementally maintained cache must equal a full re-merge *)
      Alcotest.(check bool)
        (Printf.sprintf "cache = recompute after run %d" (i + 1))
        true
        (Counts.equal (Db.aggregate db) (Db.recompute_aggregate db)))
    batches;
  let expect = Counts.merge (List.map Counts.of_list batches) in
  Alcotest.(check bool) "aggregate = merge of all runs" true
    (Counts.equal (Db.aggregate db) expect);
  (* failed runs leave the aggregate untouched *)
  ignore
    (Db.add db ~design:"gcd" ~backend:"bmc" ~workload:"bmc" ~seed:0 ~cycles:10
       (Error "timeout"));
  Alcotest.(check bool) "failed run does not change aggregate" true
    (Counts.equal (Db.aggregate db) expect);
  (* deleting the cache forces an identical recompute on load *)
  Sys.remove (Filename.concat dir "aggregate.cnt");
  let db' = Db.load dir in
  Alcotest.(check bool) "aggregate recomputed after cache delete" true
    (Counts.equal (Db.aggregate db') expect);
  Alcotest.(check bool) "removal export is the aggregate" true
    (Counts.equal (Db.removal_counts db') expect)

let test_versioning () =
  (* load of a missing database fails loudly *)
  (try
     ignore (Db.load (fresh_dir "db_missing"));
     Alcotest.fail "load of missing db succeeded"
   with Db.Db_error _ -> ());
  (* init refuses to clobber an existing database *)
  let dir = fresh_dir "db_clobber" in
  ignore (Db.init dir);
  (try
     ignore (Db.init dir);
     Alcotest.fail "double init succeeded"
   with Db.Db_error _ -> ());
  (* a malformed record names its physical line, blank lines included *)
  List.iter
    (fun (file, meta) ->
      let dir = fresh_dir "db_lineno" in
      ignore (Db.init dir);
      let oc = open_out (Filename.concat dir file) in
      output_string oc (meta ^ "\n\n{\"type\":\"bogus\"}\n");
      close_out oc;
      match Db.load dir with
      | _ -> Alcotest.fail (file ^ ": malformed record accepted")
      | exception Sic_obs.Artifact.Bad_format m ->
          Alcotest.(check bool) (file ^ ": error names line 3") true
            (contains ~needle:(file ^ ": line 3:") m))
    [
      ("manifest.ndjson", "{\"type\":\"meta\",\"format\":\"sic-db\",\"version\":1}");
      ("exclusions.ndjson", "{\"type\":\"meta\",\"format\":\"sic-exclusions\",\"version\":1}");
    ];
  (* a manifest whose meta record names no format is rejected at line 1 *)
  let dir_nofmt = fresh_dir "db_nofmt" in
  ignore (Db.init dir_nofmt);
  Out_channel.with_open_bin (Filename.concat dir_nofmt "manifest.ndjson") (fun oc ->
      output_string oc "{\"type\":\"meta\",\"version\":1}\n");
  (match Db.load dir_nofmt with
  | _ -> Alcotest.fail "format-less meta record accepted"
  | exception Sic_obs.Artifact.Bad_format m ->
      Alcotest.(check bool) "error names line 1" true
        (contains ~needle:"manifest.ndjson: line 1:" m));
  (* a manifest from an incompatible future version is rejected *)
  let dir2 = fresh_dir "db_future" in
  ignore (Db.init dir2);
  let manifest = Filename.concat dir2 "manifest.ndjson" in
  let oc = open_out manifest in
  output_string oc "{\"type\":\"meta\",\"format\":\"sic-db\",\"version\":99}\n";
  close_out oc;
  try
    ignore (Db.load dir2);
    Alcotest.fail "future version accepted"
  with Sic_obs.Artifact.Bad_format m ->
    Alcotest.(check bool) "error names the version" true (contains ~needle:"99" m)

let test_diff () =
  let dir = fresh_dir "db_diff" in
  let db = Db.init dir in
  let r1 = add_ok db ~design:"gcd" ~backend:"compiled" [ ("a", 0); ("b", 2) ] in
  let r2 = add_ok db ~design:"gcd" ~backend:"fuzz" [ ("a", 4); ("b", 0) ] in
  let d = Db.diff db ~before:r1.Db.id ~after:r2.Db.id in
  Alcotest.(check (list string)) "newly covered" [ "a" ] d.Counts.newly_covered;
  Alcotest.(check (list string)) "lost" [ "b" ] d.Counts.lost;
  try
    ignore (Db.diff db ~before:"nope" ~after:r1.Db.id);
    Alcotest.fail "diff with unknown id succeeded"
  with Db.Db_error _ -> ()

let test_rank () =
  let dir = fresh_dir "db_rank" in
  let db = Db.init dir in
  (* crafted fixture with a known greedy solution:
     rA = {p1 p2 p3}  gain 3  -> picked first
     rB = {p3 p4 p5}  gain 2  -> picked second
     rC = {p5 p6}     gain 1  -> picked third
     rD = {p1}        gain 0  -> never picked *)
  let ra = add_ok db ~design:"d" ~backend:"compiled" [ ("p1", 1); ("p2", 1); ("p3", 1) ] in
  let rb = add_ok db ~design:"d" ~backend:"compiled" [ ("p3", 1); ("p4", 1); ("p5", 1) ] in
  let rc = add_ok db ~design:"d" ~backend:"compiled" [ ("p5", 1); ("p6", 1) ] in
  let _rd = add_ok db ~design:"d" ~backend:"compiled" [ ("p1", 9) ] in
  let picked = Db.rank db in
  Alcotest.(check (list string)) "greedy pick order"
    [ ra.Db.id; rb.Db.id; rc.Db.id ]
    (List.map (fun r -> r.Db.id) picked);
  (* the ranked subset's merged coverage equals the whole database's *)
  let subset = Counts.merge (List.map (Db.load_counts db) picked) in
  Alcotest.(check (list string)) "subset covers everything"
    (Counts.covered (Db.aggregate db))
    (Counts.covered subset);
  (* at a higher threshold the cheap runs stop sufficing *)
  let picked5 = Db.rank ~threshold:5 db in
  Alcotest.(check bool) "threshold changes the answer" true
    (List.length picked5 <= List.length (Db.ok_runs db));
  let sub5 = Counts.merge (List.map (Db.load_counts db) picked5) in
  Alcotest.(check (list string)) "threshold-5 subset matches aggregate"
    (Counts.covered ~threshold:5 (Db.aggregate db))
    (Counts.covered ~threshold:5 sub5);
  (* renderers stay in sync with the data *)
  Alcotest.(check bool) "list renders every run" true
    (contains ~needle:ra.Db.id (Db.render_list db));
  Alcotest.(check bool) "rank render names the winner" true
    (contains ~needle:ra.Db.id (Db.render_rank db));
  Alcotest.(check bool) "report renders" true
    (contains ~needle:"compiled" (Db.render_report db))

(* [Db.aggregate] reads without the lock, so a writer must replace
   aggregate.cnt atomically: a reader racing [Db.add] sees the old map or
   the new one, never a truncated prefix that parses as fewer points. *)
let test_aggregate_read_during_add () =
  let dir = fresh_dir "db_race" in
  let db = Db.init dir in
  let points = List.init 2000 (fun i -> (Printf.sprintf "top.point_%04d" i, i mod 3)) in
  ignore (add_ok db ~design:"d" ~backend:"compiled" points);
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let db = Db.load dir in
          for seed = 1 to 40 do
            ignore (add_ok db ~design:"d" ~backend:"compiled" ~seed points)
          done;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      let reads = ref 0 in
      let rec watch () =
        let agg = Db.aggregate db in
        incr reads;
        Alcotest.(check int) "every read holds the full point set" 2000
          (Counts.total_points agg);
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> watch ()
        | _, status -> status
      in
      let status = watch () in
      Alcotest.(check bool) "writer succeeded" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "reads overlapped the writes" true (!reads > 1);
      Alcotest.(check (list string)) "no temporary file survives"
        [ "aggregate.cnt"; "manifest.ndjson" ]
        (List.filter
           (fun f -> not (Filename.check_suffix f ".cnt" && f.[0] = 'r'))
           (List.sort compare (Array.to_list (Sys.readdir dir))))

let tests =
  [
    Alcotest.test_case "manifest round-trip" `Quick test_round_trip;
    Alcotest.test_case "incremental aggregate" `Quick test_aggregate_incremental;
    Alcotest.test_case "format versioning" `Quick test_versioning;
    Alcotest.test_case "run diff" `Quick test_diff;
    Alcotest.test_case "greedy rank" `Quick test_rank;
    Alcotest.test_case "aggregate reads race Db.add safely" `Quick test_aggregate_read_during_add;
  ]
