(** The persistent coverage database.

    The paper's §5.3 observation — every backend reports the same
    [cover point -> count] map, so coverage "can be merged across backends
    trivially" — only pays off at scale if the runs are kept somewhere: a
    campaign produces hundreds of counts maps from different backends,
    workloads and seeds, and the interesting questions (what is covered
    overall? which runs matter? what is still worth instrumenting on the
    FPGA?) are questions about the {e collection}.

    A database is a plain directory:

    - [manifest.ndjson] — one JSON object per line ({!Sic_obs.Json}
      syntax): a versioned header record, then one [run] record per
      completed or failed job, appended in arrival order;
    - [<run-id>.cnt] — the counts map of each successful run, in the
      {!Sic_coverage.Counts} v1 interchange format;
    - [aggregate.cnt] — a cached pointwise-sum of every successful run,
      kept up to date incrementally on {!add} (saturating addition is
      associative and commutative, so incremental maintenance equals a
      full re-merge).

    Everything is human-readable text; [rm aggregate.cnt] simply forces a
    recompute. *)

module Counts = Sic_coverage.Counts
module Timeline = Sic_coverage.Timeline
module Json = Sic_obs.Json
module Obs = Sic_obs.Obs
module Artifact = Sic_obs.Artifact

exception Db_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Db_error m)) fmt

type status = Run_ok | Run_failed of string

type run = {
  id : string;
  design : string;
  circuit_hash : string;  (** digest of the instrumented circuit, or "-" *)
  backend : string;
  workload : string;
  seed : int;
  cycles : int;  (** simulated cycles / fuzz execs / BMC bound, per workload *)
  wave : int;
  wall_us : float;
  status : status;
  points_total : int;
  points_covered : int;
}

type exclusion = {
  ex_name : string;  (** the cover point *)
  ex_reason : string;  (** e.g. "unreachable within bound 10" *)
  ex_design : string;
  ex_wave : int;  (** the closure wave that proved it *)
}

type t = {
  dir : string;
  mutable runs_rev : run list;  (** newest first; manifest order is the reverse *)
  mutable exclusions_rev : exclusion list;  (** newest first, like [runs_rev] *)
}

let version = 1

let exclusions_version = 1

let manifest_path dir = Filename.concat dir "manifest.ndjson"

let exclusions_path dir = Filename.concat dir "exclusions.ndjson"

let aggregate_path dir = Filename.concat dir "aggregate.cnt"

let counts_file run = run.id ^ ".cnt"

let timeline_file run = run.id ^ ".tl"

let dir t = t.dir

let runs t = List.rev t.runs_rev

(* ------------------------------------------------------------------ *)
(* The advisory lock                                                    *)
(* ------------------------------------------------------------------ *)

(** Cross-process mutual exclusion for manifest/aggregate updates. The
    lock is a [lock] file in the database directory created with
    [O_CREAT | O_EXCL] (atomic on every POSIX filesystem) and holding the
    owner's pid; a lock whose owner is no longer alive is stale and taken
    over, so a killed campaign never wedges the database. Reentrant
    within a process (nested {!with_lock} calls on the same directory are
    free), but {e not} thread-safe on its own — a threaded writer (the
    coverage server) must serialize its own writers first. *)
module Lock = struct
  let lock_path dir = Filename.concat dir "lock"

  (* directories this process already holds; makes with_lock reentrant *)
  let held : (string, unit) Hashtbl.t = Hashtbl.create 4

  let owner_alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
    | exception Unix.Unix_error _ -> true (* EPERM etc.: someone owns it *)

  (* one attempt; on a stale lock, unlink it and report failure so the
     retry loop races for the fresh O_EXCL create like everyone else *)
  let try_acquire path =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | fd ->
        let pid = string_of_int (Unix.getpid ()) ^ "\n" in
        let b = Bytes.of_string pid in
        ignore (Unix.write fd b 0 (Bytes.length b));
        Unix.close fd;
        true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
        (match int_of_string_opt (String.trim (try Artifact.load path Fun.id with _ -> "")) with
        | Some pid when not (owner_alive pid) -> ( try Unix.unlink path with _ -> ())
        | Some _ | None -> ());
        false

  let with_lock ?(timeout_s = 10.) dir f =
    if Hashtbl.mem held dir then f ()
    else begin
      let path = lock_path dir in
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec acquire () =
        if try_acquire path then ()
        else if Unix.gettimeofday () > deadline then
          error "timed out after %.0fs waiting for %s (held by pid %s)" timeout_s path
            (String.trim (try Artifact.load path Fun.id with _ -> "?"))
        else begin
          Unix.sleepf 0.01;
          acquire ()
        end
      in
      acquire ();
      Hashtbl.replace held dir ();
      Fun.protect
        ~finally:(fun () ->
          Hashtbl.remove held dir;
          try Unix.unlink path with _ -> ())
        f
    end
end

let find t id = List.find_opt (fun r -> r.id = id) t.runs_rev

let ok_runs t = List.filter (fun r -> r.status = Run_ok) (runs t)

(* ------------------------------------------------------------------ *)
(* Manifest encoding                                                    *)
(* ------------------------------------------------------------------ *)

let json_of_run (r : run) : Json.t =
  Json.Obj
    ([
       ("type", Json.String "run");
       ("id", Json.String r.id);
       ("design", Json.String r.design);
       ("circuit_hash", Json.String r.circuit_hash);
       ("backend", Json.String r.backend);
       ("workload", Json.String r.workload);
       ("seed", Json.Int r.seed);
       ("cycles", Json.Int r.cycles);
       ("wave", Json.Int r.wave);
       ("wall_us", Json.Float r.wall_us);
       ("points_total", Json.Int r.points_total);
       ("points_covered", Json.Int r.points_covered);
     ]
    @
    match r.status with
    | Run_ok -> [ ("status", Json.String "ok") ]
    | Run_failed why -> [ ("status", Json.String "failed"); ("error", Json.String why) ])

let run_of_json lineno (j : Json.t) : run =
  let str k =
    match Json.string_member k j with
    | Some s -> s
    | None -> Artifact.bad_format lineno "missing field %s" k
  in
  let int k =
    match Json.int_member k j with
    | Some i -> i
    | None -> Artifact.bad_format lineno "missing field %s" k
  in
  let status =
    match str "status" with
    | "ok" -> Run_ok
    | "failed" -> Run_failed (Option.value ~default:"unknown" (Json.string_member "error" j))
    | s -> Artifact.bad_format lineno "unknown status %S" s
  in
  {
    id = str "id";
    design = str "design";
    circuit_hash = str "circuit_hash";
    backend = str "backend";
    workload = str "workload";
    seed = int "seed";
    cycles = int "cycles";
    wave = int "wave";
    wall_us = Option.value ~default:0. (Json.float_member "wall_us" j);
    status;
    points_total = int "points_total";
    points_covered = int "points_covered";
  }

(* Both NDJSON artifacts load the same way: the meta record is checked,
   then each record is decoded with its physical line number. *)
let load_records path ~format ~version of_json =
  Artifact.load path (fun text -> snd (Artifact.records ~format ~version of_json text))

(* ------------------------------------------------------------------ *)
(* The exclusion artifact                                               *)
(* ------------------------------------------------------------------ *)

(* [exclusions.ndjson]: the same shape as the manifest — a versioned meta
   header, then one record per point formally proven unreachable (the
   closure loop's UNSAT-within-bound verdicts). A separate artifact
   rather than manifest records because it describes the *design*, not a
   run: deleting runs or re-running a campaign leaves it valid, and
   report/rank/HTML consult it to stop counting dead points as coverage
   debt. *)

let json_of_exclusion (e : exclusion) : Json.t =
  Json.Obj
    [
      ("type", Json.String "exclusion");
      ("name", Json.String e.ex_name);
      ("reason", Json.String e.ex_reason);
      ("design", Json.String e.ex_design);
      ("wave", Json.Int e.ex_wave);
    ]

let exclusion_of_json lineno (j : Json.t) : exclusion =
  let str k =
    match Json.string_member k j with
    | Some s -> s
    | None -> Artifact.bad_format lineno "missing field %s" k
  in
  {
    ex_name = str "name";
    ex_reason = str "reason";
    ex_design = str "design";
    ex_wave = Option.value ~default:0 (Json.int_member "wave" j);
  }

(* ------------------------------------------------------------------ *)
(* Open / create                                                        *)
(* ------------------------------------------------------------------ *)

let init dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then error "%s exists and is not a directory" dir;
  if Sys.file_exists (manifest_path dir) then error "%s is already a coverage database" dir;
  (* stale artifacts from a hand-deleted manifest must not leak into the
     fresh database *)
  if Sys.file_exists (aggregate_path dir) then Sys.remove (aggregate_path dir);
  if Sys.file_exists (exclusions_path dir) then Sys.remove (exclusions_path dir);
  Artifact.append (manifest_path dir) (Artifact.meta ~format:"sic-db" ~version []);
  { dir; runs_rev = []; exclusions_rev = [] }

let load dir =
  if not (Sys.file_exists (manifest_path dir)) then
    error "%s is not a coverage database (no manifest.ndjson); run `sic db init` first" dir;
  let runs = load_records (manifest_path dir) ~format:"sic-db" ~version run_of_json in
  let exclusions =
    if Sys.file_exists (exclusions_path dir) then
      load_records (exclusions_path dir) ~format:"sic-exclusions" ~version:exclusions_version
        exclusion_of_json
    else []
  in
  { dir; runs_rev = List.rev runs; exclusions_rev = List.rev exclusions }

let open_or_init dir = if Sys.file_exists (manifest_path dir) then load dir else init dir

(* ------------------------------------------------------------------ *)
(* Counts and the aggregate cache                                       *)
(* ------------------------------------------------------------------ *)

let load_counts t (run : run) : Counts.t =
  match run.status with
  | Run_failed _ -> error "run %s failed; it has no counts" run.id
  | Run_ok -> Counts.load (Filename.concat t.dir (counts_file run))

(** The run's coverage-convergence timeline, when one was recorded
    (campaigns with [timeline_every > 0]); failed runs and runs from
    timeline-less producers have none. *)
let load_timeline t (run : run) : Timeline.t option =
  match run.status with
  | Run_failed _ -> None
  | Run_ok ->
      let path = Filename.concat t.dir (timeline_file run) in
      if Sys.file_exists path then Some (Timeline.load path) else None

let recompute_aggregate t : Counts.t =
  Obs.span "db.aggregate.recompute" @@ fun () ->
  Lock.with_lock t.dir @@ fun () ->
  let agg = Counts.merge (List.map (load_counts t) (ok_runs t)) in
  Counts.save (aggregate_path t.dir) agg;
  agg

let aggregate t : Counts.t =
  if Sys.file_exists (aggregate_path t.dir) then Counts.load (aggregate_path t.dir)
  else recompute_aggregate t

(** The §5.3 export: the merged counts, ready to feed
    {!Sic_coverage.Removal.remove_covered} so the next (more expensive)
    instrumentation only carries still-uncovered points. *)
let removal_counts = aggregate

(** The idempotent merge: pointwise maximum over every successful run.
    Unlike the cached sum {!aggregate} this is safe under at-least-once
    delivery (a network producer that retries a push reports the same run
    twice), which is why the coverage server's [/report] serves this view.
    Never cached — callers that need it hot (the server) key their own
    cache on {!manifest_stamp}. *)
let union_counts t : Counts.t =
  Counts.union_max (List.map (load_counts t) (ok_runs t))

(** A cheap, monotonically increasing version of the database as it is on
    disk {e right now}: the manifest's byte length. The manifest is
    append-only, so any add — by this process or any other — grows it;
    equal stamps imply an identical run set. This is the coverage
    server's ETag key. *)
let manifest_stamp t : int =
  match Unix.stat (manifest_path t.dir) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let next_id t = Printf.sprintf "r%04d" (List.length t.runs_rev + 1)

let add t ~design ?(circuit_hash = "-") ~backend ~workload ~seed ~cycles ?(wave = 0)
    ?(wall_us = 0.) ?timeline (outcome : (Counts.t, string) result) : run =
  Obs.span "db.add" @@ fun () ->
  Lock.with_lock t.dir @@ fun () ->
  let id = next_id t in
  let status, points_total, points_covered =
    match outcome with
    | Ok counts -> (Run_ok, Counts.total_points counts, Counts.covered_points counts)
    | Error why -> (Run_failed why, 0, 0)
  in
  let run =
    {
      id;
      design;
      circuit_hash;
      backend;
      workload;
      seed;
      cycles;
      wave;
      wall_us;
      status;
      points_total;
      points_covered;
    }
  in
  (match outcome with
  | Ok counts ->
      Counts.save (Filename.concat t.dir (counts_file run)) counts;
      (match timeline with
      | Some tl -> Timeline.save (Filename.concat t.dir (timeline_file run)) tl
      | None -> ());
      (* maintain the cache incrementally: sum-merge is associative *)
      let agg =
        if t.runs_rev = [] then counts
        else Counts.merge [ aggregate t; counts ]
      in
      Counts.save (aggregate_path t.dir) agg
  | Error _ -> Obs.count "db.failed_runs");
  Artifact.append (manifest_path t.dir) (json_of_run run);
  t.runs_rev <- run :: t.runs_rev;
  run

(* ------------------------------------------------------------------ *)
(* Exclusions                                                           *)
(* ------------------------------------------------------------------ *)

let exclusions t = List.rev t.exclusions_rev

let excluded_names t : string list =
  List.sort_uniq String.compare (List.map (fun e -> e.ex_name) t.exclusions_rev)

(** Append proven-unreachable points to the exclusion artifact.
    Idempotent per point: a name already excluded is skipped, so replayed
    closure waves never duplicate records. *)
let add_exclusions t (exs : exclusion list) : unit =
  Obs.span "db.add_exclusions" @@ fun () ->
  Lock.with_lock t.dir @@ fun () ->
  let already = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace already e.ex_name ()) t.exclusions_rev;
  let fresh =
    List.filter
      (fun e ->
        if Hashtbl.mem already e.ex_name then false
        else begin
          Hashtbl.replace already e.ex_name ();
          true
        end)
      exs
  in
  if fresh <> [] then begin
    let path = exclusions_path t.dir in
    if not (Sys.file_exists path) then
      Artifact.append path (Artifact.meta ~format:"sic-exclusions" ~version:exclusions_version []);
    List.iter
      (fun e ->
        Artifact.append path (json_of_exclusion e);
        t.exclusions_rev <- e :: t.exclusions_rev)
      fresh
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

let get_run t id =
  match find t id with Some r -> r | None -> error "no run %s in %s" id t.dir

let diff t ~before ~after =
  Counts.diff ~before:(load_counts t (get_run t before)) ~after:(load_counts t (get_run t after))

(** Greedy set cover: the classic ln(n)-approximate minimal subset of runs
    whose union reaches every point the whole database covers (at
    [threshold]). This is the paper's "remove already-covered points"
    generalized to test-suite minimization: keep these runs, retire the
    rest. Deterministic: ties break toward the earlier run id. *)
let rank ?(threshold = 1) t : run list =
  Obs.span "db.rank" @@ fun () ->
  let with_counts =
    List.map (fun r -> (r, load_counts t r)) (ok_runs t)
  in
  let excluded = excluded_names t in
  let target =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, c) -> Counts.covered ~threshold c) with_counts)
    |> List.filter (fun n -> not (List.mem n excluded))
  in
  let uncovered = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace uncovered p ()) target;
  let gain (_, counts) =
    List.fold_left
      (fun acc p -> if Hashtbl.mem uncovered p then acc + 1 else acc)
      0
      (Counts.covered ~threshold counts)
  in
  let rec go picked remaining =
    if Hashtbl.length uncovered = 0 || remaining = [] then List.rev picked
    else
      let best, best_gain =
        List.fold_left
          (fun (best, best_gain) cand ->
            let g = gain cand in
            if g > best_gain then (Some cand, g) else (best, best_gain))
          (None, 0) remaining
      in
      match best with
      | None | Some _ when best_gain = 0 -> List.rev picked
      | None -> List.rev picked
      | Some ((r, counts) as chosen) ->
          List.iter (fun p -> Hashtbl.remove uncovered p) (Counts.covered ~threshold counts);
          go (r :: picked) (List.filter (fun c -> c != chosen) remaining)
  in
  go [] with_counts

(* ------------------------------------------------------------------ *)
(* Rendering (the CLI's output)                                         *)
(* ------------------------------------------------------------------ *)

let render_run_line (r : run) =
  Printf.sprintf "%-6s %-12s %-9s %-8s w%-2d seed=%-6d n=%-8d %s" r.id r.design r.backend
    r.workload r.wave r.seed r.cycles
    (match r.status with
    | Run_ok -> Printf.sprintf "%d/%d covered" r.points_covered r.points_total
    | Run_failed why -> "FAILED: " ^ why)

let render_list t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "coverage database %s: %d runs (%d ok, %d failed)\n" t.dir
       (List.length t.runs_rev)
       (List.length (ok_runs t))
       (List.length t.runs_rev - List.length (ok_runs t)));
  List.iter (fun r -> Buffer.add_string buf (render_run_line r ^ "\n")) (runs t);
  Buffer.contents buf

let render_report t =
  let buf = Buffer.create 512 in
  let agg = aggregate t in
  (* formally excluded points are off the books entirely: the denominator,
     per-backend tallies and the uncovered list all range over the
     non-excluded points only (with no exclusions this is byte-identical
     to the exclusion-free report) *)
  let excluded = excluded_names t in
  let is_excluded n = List.mem n excluded in
  let live = List.filter (fun n -> not (is_excluded n)) (Counts.names agg) in
  let total = List.length live in
  let cov = List.length (List.filter (fun n -> Counts.get agg n > 0) live) in
  Buffer.add_string buf
    (Printf.sprintf "runs        : %d ok, %d failed\n"
       (List.length (ok_runs t))
       (List.length t.runs_rev - List.length (ok_runs t)));
  Buffer.add_string buf
    (Printf.sprintf "cover points: %d/%d covered (%.1f%%)\n" cov total
       (if total = 0 then 100. else 100. *. float_of_int cov /. float_of_int total));
  if excluded <> [] then
    Buffer.add_string buf
      (Printf.sprintf "excluded    : %d points proven unreachable\n" (List.length excluded));
  (* contribution per backend: points each backend covered on its own *)
  let backends =
    List.sort_uniq String.compare (List.map (fun r -> r.backend) (ok_runs t))
  in
  List.iter
    (fun backend ->
      let c =
        Counts.merge
          (List.filter_map
             (fun r -> if r.backend = backend then Some (load_counts t r) else None)
             (ok_runs t))
      in
      let bcov =
        List.length (List.filter (fun n -> (not (is_excluded n)) && Counts.get c n > 0) (Counts.names c))
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-9s : %d/%d points, %d runs\n" backend bcov total
           (List.length (List.filter (fun r -> r.backend = backend) (ok_runs t)))))
    backends;
  let uncovered = List.filter (fun n -> Counts.get agg n = 0) live in
  if uncovered <> [] then begin
    Buffer.add_string buf "still uncovered:\n";
    List.iter (fun n -> Buffer.add_string buf ("  " ^ n ^ "\n")) uncovered
  end;
  if excluded <> [] then begin
    Buffer.add_string buf "excluded (proven unreachable):\n";
    List.iter
      (fun (e : exclusion) ->
        Buffer.add_string buf (Printf.sprintf "  %s  (%s)\n" e.ex_name e.ex_reason))
      (exclusions t)
  end;
  Buffer.contents buf

(** The textual convergence report ([sic db report --timeline]): one
    sparkline per run that recorded a timeline, plus a "which backend
    saturates first" comparison when several backends did. *)
let render_timelines t =
  let with_tl =
    List.filter_map
      (fun r -> Option.map (fun tl -> (r, tl)) (load_timeline t r))
      (ok_runs t)
  in
  if with_tl = [] then
    "no timelines recorded (re-run the campaign with --timeline-every > 0)\n"
  else begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "coverage convergence (work -> points covered):\n";
    List.iter
      (fun ((r : run), (tl : Timeline.t)) ->
        let sat =
          match Timeline.saturation_at tl with
          | Some at -> Printf.sprintf ", ~saturated at n=%d" at
          | None -> ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-6s %-12s %-9s [%s] %d/%d pts in n=%d%s\n" r.id r.design
             r.backend (Timeline.sparkline tl) (Timeline.final_covered tl) tl.Timeline.total
             (Timeline.last_at tl) sat))
      with_tl;
    let backends =
      List.sort_uniq String.compare (List.map (fun ((r : run), _) -> r.backend) with_tl)
    in
    if List.length backends > 1 then begin
      Buffer.add_string buf "earliest saturation per backend:\n";
      List.iter
        (fun backend ->
          let sats =
            List.filter_map
              (fun ((r : run), tl) ->
                if r.backend = backend then Timeline.saturation_at tl else None)
              with_tl
          in
          match sats with
          | [] -> ()
          | _ ->
              Buffer.add_string buf
                (Printf.sprintf "  %-9s : n=%d\n" backend
                   (List.fold_left min max_int sats)))
        backends
    end;
    Buffer.contents buf
  end

let render_rank ?threshold t =
  let picked = rank ?threshold t in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d of %d runs suffice for full merged coverage:\n" (List.length picked)
       (List.length (ok_runs t)));
  let covered = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let c = load_counts t r in
      let fresh =
        List.filter (fun p -> not (Hashtbl.mem covered p)) (Counts.covered ?threshold c)
      in
      List.iter (fun p -> Hashtbl.replace covered p ()) fresh;
      Buffer.add_string buf
        (Printf.sprintf "  %s  +%-4d points  (%s %s seed=%d)\n" r.id (List.length fresh)
           r.design r.backend r.seed))
    picked;
  Buffer.contents buf

(** The machine-readable rank view ([sic db rank --json]) — what the
    closure loop and external tooling consume: the aggregate's coverage
    state split into covered / uncovered / excluded (exclusions are off
    the books, as in {!render_report}), plus the greedy set-cover pick
    with each run's marginal gain. *)
let rank_json ?(threshold = 1) t : Json.t =
  let agg = aggregate t in
  let excluded = excluded_names t in
  let is_excluded n = List.mem n excluded in
  let live = List.filter (fun n -> not (is_excluded n)) (Counts.names agg) in
  let uncovered = List.filter (fun n -> Counts.get agg n < threshold) live in
  let covered_n = List.length live - List.length uncovered in
  let picked = rank ~threshold t in
  let seen = Hashtbl.create 256 in
  let picked_json =
    List.map
      (fun r ->
        let c = load_counts t r in
        let fresh =
          List.filter (fun p -> not (Hashtbl.mem seen p)) (Counts.covered ~threshold c)
        in
        List.iter (fun p -> Hashtbl.replace seen p ()) fresh;
        Json.Obj
          [
            ("id", Json.String r.id);
            ("design", Json.String r.design);
            ("backend", Json.String r.backend);
            ("seed", Json.Int r.seed);
            ("gain", Json.Int (List.length fresh));
          ])
      picked
  in
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [
      ("threshold", Json.Int threshold);
      ("points_total", Json.Int (List.length live));
      ("points_covered", Json.Int covered_n);
      ("uncovered", strings uncovered);
      ("excluded", strings excluded);
      ("picked", Json.List picked_json);
    ]
