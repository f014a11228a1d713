(** [ingest-serve]: the coverage server under a fixed offered load.

    The server runs in-process ([Serve.start], two worker threads) on a
    database preloaded with real riscv-mini runs. Two keep-alive
    connections send an open loop at a fixed rate, in a fixed interleave
    of one [POST /runs] to three [GET /report]. Chosen because writes and
    reads use the database layer in opposite ways: a write reloads the
    manifest and rewrites the aggregate; the first read after a write
    misses the server's cache and re-reads every counts file
    ([Db.union_counts]); later reads hit the cache. All three costs grow
    with the database, which grows by one run per write. Crash-safe
    artifact writes show on the writes, an incremental union on the read
    misses; cache hits should not move.

    A round is a fixed window of the open loop against a server started
    on a freshly preloaded database, posting the same runs every round,
    so rounds are identical work. Each
    request is timed from when it was due, so a stall also charges the
    requests queued behind it; how late the generator sent is reported
    beside it. The workload's gated operation is the write. *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db
module Serve = Sic_serve.Serve
module Client = Serve.Client
module Json = Sic_obs.Json

let preload_runs = 200
let cycles_per_run = 200
let rate = 50.
let round_s = 2.
let reads_per_write = 3
let connections = 2
let server_threads = 2

let setups_per_round = 5

(** The latency limit on the tail: a request slower than this (from when
    it was due) has timed out and counts as failed. *)
let latency_limit = 0.5

let per_round = int_of_float (round_s *. rate)
let writes_per_round = (per_round + reads_per_write) / (reads_per_write + 1)

(* input generation, not timed as set-up: real riscv-mini runs under
   random stimulus, packed 62 to a bit-parallel engine pass (each lane's
   counts equal a solo run's) *)
let generate ~seed n : string array =
  let c = Bench.phase "frontend.elab" (fun () -> Sic_designs.Riscv_mini.circuit ()) in
  let ic = Bench.phase "cover.instrument" (fun () -> fst (Sic_coverage.Line_coverage.instrument c)) in
  let low = Bench.phase "passes.lower" (fun () -> Sic_passes.Compile.lower ic) in
  let master = Sic_fuzz.Rng.create seed in
  let out = Array.make n "" in
  let rec batch first =
    if first < n then begin
      let k = min 62 (n - first) in
      let lt = Sic_sim.Lanes.build ~lanes:k low in
      Sic_sim.Backend.reset_sequence (Sic_sim.Lanes.to_backend ~name:"lanes" lt);
      let streams =
        Array.init k (fun j -> Sic_fuzz.Rng.bits30 (Sic_fuzz.Rng.split master (first + j)))
      in
      Sic_sim.Lanes.run_random lt ~streams ~cycles:cycles_per_run;
      for j = 0 to k - 1 do
        out.(first + j) <- Counts.to_string (Sic_sim.Lanes.lane_counts lt j)
      done;
      batch (first + k)
    end
  in
  batch 0;
  out

let add_run db j body =
  ignore
    (Db.add db ~design:"riscv-mini" ~backend:"compiled" ~workload:"random" ~seed:j
       ~cycles:cycles_per_run (Ok (Counts.of_string body)))

(* A fresh database preloaded with [pre], built with [Db.add] as any
   producer would. It is the workload's input, built between rounds and
   not timed: its cost is file-system work that varies several-fold from
   minute to minute on a shared machine, while what a user pays before
   serving an existing database is [Serve.start] (which loads it). The
   databases stay until the run's scratch directory goes, because
   deleting files between timed phases lands the file system's work in
   them. *)
let preloaded ~work (pre : string array) i =
  let dir = Filename.concat work (Printf.sprintf "round-%d.db" i) in
  let db = Db.init dir in
  Array.iteri (add_run db) pre;
  dir

let setup (db_dir : string ref) (_ : int) =
  Bench.phase "serve.start" (fun () -> Serve.start ~threads:server_threads ~db_dir:!db_dir ())

type kind = Write of int | Read

let kind_of i = if i mod (reads_per_write + 1) = 0 then Write (i / (reads_per_write + 1)) else Read
let is_write i = match kind_of i with Write _ -> true | Read -> false

let target = function
  | Write j ->
      Printf.sprintf "/runs?design=riscv-mini&backend=compiled&workload=random&seed=%d&cycles=%d"
        (preload_runs + j) cycles_per_run
  | Read -> "/report"

(** The open loop: request [i] is due [i / rate] seconds after the
    start; each connection thread takes the next request in order, waits
    until it is due (if it is not already late), sends it, and records
    its timing and connection. *)
let open_loop ~port ~(bodies : string array) : Stats.request array * int array =
  let n = per_round in
  let records = Array.make n { Stats.due = 0.; sent = 0.; finished = 0.; ok = false } in
  let conn_of = Array.make n 0 in
  let next = ref 0 and m = Mutex.create () in
  let t0 = Bench.now () +. 0.05 in
  let worker c =
    let conn = ref (Client.connect ~host:"127.0.0.1" ~port) in
    let rec loop () =
      let i = Mutex.protect m (fun () -> let i = !next in incr next; i) in
      if i < n then begin
        let due = t0 +. (float_of_int i /. rate) in
        let wait = due -. Bench.now () in
        if wait > 0. then Unix.sleepf wait;
        let kind = kind_of i in
        let sent = Bench.now () in
        let ok =
          match kind with
          | Write j ->
              (Client.request !conn ~body:bodies.(j) ~meth:"POST" ~target:(target kind) ()).Client.status
              = 201
          | Read -> (Client.request !conn ~meth:"GET" ~target:(target kind) ()).Client.status = 200
          | exception (Unix.Unix_error _ | Client.Error _) ->
              (try Client.close !conn with _ -> ());
              conn := Client.connect ~host:"127.0.0.1" ~port;
              false
        in
        records.(i) <- { Stats.due; sent; finished = Bench.now (); ok };
        conn_of.(i) <- c;
        loop ()
      end
    in
    loop ();
    Client.close !conn
  in
  List.iter Thread.join (List.init connections (fun c -> Thread.create worker c));
  (records, conn_of)

let get_json port target =
  let r = Client.get (Printf.sprintf "http://127.0.0.1:%d%s" port target) in
  if r.Client.status <> 200 then failwith (Printf.sprintf "GET %s answered %d" target r.Client.status);
  Json.parse r.Client.body

let report_counts (j : Json.t) : Counts.t =
  match Json.member "counts" j with
  | Some (Json.Obj kv) ->
      Counts.of_list
        (List.map (fun (k, v) -> (k, match v with Json.Int n -> n | _ -> failwith "bad count")) kv)
  | _ -> failwith "/report has no counts"

type round = {
  records : Stats.request array;
  conn_of : int array;
  hits : int;  (** the server's own cache counters *)
  misses : int;
  final : Counts.t;  (** the [/report] after the window *)
}

(* one window of the open loop, on the server a set-up just started;
   then the next round's database *)
let run_round ~work ~pre ~bodies ~n_rounds (db_dir : string ref) server i : round =
  let port = Serve.port server in
  let records, conn_of = open_loop ~port ~bodies in
  let metrics = get_json port "/metrics" in
  let count k = Option.value ~default:0 (Json.int_member k metrics) in
  let final = report_counts (get_json port "/report") in
  if i + 1 < n_rounds then db_dir := preloaded ~work pre (i + 1);
  { records; conn_of; hits = count "cache_hits"; misses = count "cache_misses"; final }

type shadow = { decode_s : float; load_s : float; add_s : float; union_s : float; encode_s : float }

(* the server's database work per write of round [i], again in-process
   on a copy of that round's database: decode the body, reload, add, then
   the union the next read recomputes *)
let shadow_writes ~work (pre : string array) (bodies : string array) i : shadow array =
  let dir = Filename.concat work (Printf.sprintf "shadow-%d.db" i) in
  let db = Db.init dir in
  Array.iteri (add_run db) pre;
  Array.mapi
    (fun j body ->
      let counts, decode_s = Bench.time (fun () -> Counts.of_string body) in
      let _, encode_s = Bench.time (fun () -> Counts.to_string counts) in
      let db, load_s = Bench.time (fun () -> Db.load dir) in
      let _, add_s =
        Bench.time (fun () ->
            Db.add db ~design:"riscv-mini" ~backend:"compiled" ~workload:"random"
              ~seed:(preload_runs + j) ~cycles:cycles_per_run (Ok counts))
      in
      let _, union_s = Bench.time (fun () -> Db.union_counts db) in
      { decode_s; load_s; add_s; union_s; encode_s })
    bodies

(* client-side request spans, one track per connection, with the
   shadow's database work attributed inside *)
let trace_round (shadow : shadow array) (r : round) =
  let t0 = r.records.(0).Stats.due in
  let t1 = Array.fold_left (fun acc (q : Stats.request) -> Float.max acc q.Stats.finished) t0 r.records in
  let root = Trace.record ~t0 ~t1 "round" in
  Array.iteri
    (fun i (q : Stats.request) ->
      let track = 3 + r.conn_of.(i) in
      match kind_of i with
      | Write j ->
          let s = shadow.(j) in
          let span = Trace.record ~track ~parent:root ~t0:q.Stats.sent ~t1:q.Stats.finished "serve.write" in
          Bench.attribute span q.Stats.sent
            [ ("counts.decode", s.decode_s); ("db.load", s.load_s); ("db.add", s.add_s) ]
      | Read ->
          let span = Trace.record ~track ~parent:root ~t0:q.Stats.sent ~t1:q.Stats.finished "serve.read" in
          (* the first read after a write is the one that misses *)
          if i mod (reads_per_write + 1) = 1 then
            Bench.attribute span q.Stats.sent
              [ ("db.union", shadow.((i - 1) / (reads_per_write + 1)).union_s) ])
    r.records

let layer_of = function
  | "round" -> "bench.idle"
  | "serve.write" | "serve.read" -> "serve.http"
  | name -> name

let run ~seed ~seconds ~trace ~work : Bench.result =
  let n_rounds = max 2 (int_of_float (seconds /. round_s)) in
  let all = generate ~seed (preload_runs + writes_per_round) in
  let pre = Array.sub all 0 preload_runs and bodies = Array.sub all preload_runs writes_per_round in
  let db_dir = ref (preloaded ~work pre 0) in
  let setup_s, rounds =
    Bench.rounds ~seconds ~count:n_rounds ~setups_per_round ~release:Serve.stop
      ~setup:(setup db_dir) (run_round ~work ~pre ~bodies ~n_rounds db_dir)
  in
  let expected = Counts.union_max (List.map Counts.of_string (Array.to_list all)) in
  let records = Array.concat (List.map (fun r -> r.records) rounds) in
  let n = Array.length records in
  let of_kind write (r : round) =
    Array.of_list
      (List.filter_map
         (fun i -> if is_write i = write then Some (Stats.latency r.records.(i)) else None)
         (List.init per_round Fun.id))
  in
  let w = Array.concat (List.map (of_kind true) rounds) in
  let rd = Array.concat (List.map (of_kind false) rounds) in
  let all_lat = Array.map Stats.latency records in
  (* quiet rounds: the faster half by their median write *)
  let quiet = Stats.quiet ~seconds:(fun r -> Stats.median (of_kind true r)) rounds in
  let quiet_w = Array.concat (List.map (of_kind true) quiet) in
  let failed = Stats.count_failed ~limit:latency_limit records in
  let errors =
    Array.fold_left (fun acc (q : Stats.request) -> if q.Stats.ok then acc else acc + 1) 0 records
  in
  let busy =
    List.fold_left
      (fun acc r ->
        acc
        +. Array.fold_left (fun m (q : Stats.request) -> Float.max m q.Stats.finished) 0. r.records
        -. r.records.(0).Stats.due)
      0. rounds
  in
  let throughput = float_of_int (n - failed) /. busy in
  let late = Array.map Stats.lateness records in
  let covered = float_of_int (Counts.covered_points (List.hd rounds).final) in
  let gates =
    [
      Bench.gate "ingest: every POST answered 201 and every GET 200" (errors = 0)
        (Printf.sprintf "%d requests, %d errors" n errors);
      Bench.gate "ingest: final /report = client-side union_max of preload and posted runs"
        (List.for_all (fun r -> Counts.equal r.final expected) rounds)
        (Printf.sprintf "%d rounds, %d runs each, %d points covered" n_rounds (Array.length all)
           (Counts.covered_points expected));
    ]
  in
  let layers =
    if not trace then []
    else begin
      let shadows = List.mapi (fun i _ -> shadow_writes ~work pre bodies i) rounds in
      List.iter2 trace_round shadows rounds;
      let col f = Array.concat (List.map (Array.map f) shadows) in
      let http =
        Array.concat
          (List.map2
             (fun shadow r ->
               Array.mapi
                 (fun j s ->
                   let q = r.records.(j * (reads_per_write + 1)) in
                   q.Stats.finished -. q.Stats.sent -. s.decode_s -. s.load_s -. s.add_s)
                 shadow)
             shadows rounds)
      in
      let hits = List.fold_left (fun acc r -> acc + r.hits) 0 rounds in
      let misses = List.fold_left (fun acc r -> acc + r.misses) 0 rounds in
      [
        ("db.add_p50_ms", Bench.pct_ms (col (fun s -> s.add_s)) 50.);
        ("db.add_p90_ms", Bench.pct_ms (col (fun s -> s.add_s)) 90.);
        ("db.load_ms", Bench.median_ms (col (fun s -> s.load_s)));
        ("db.union_ms", Bench.median_ms (col (fun s -> s.union_s)));
        ("counts.encode_us", Stats.median (col (fun s -> s.encode_s)) *. 1e6);
        ("counts.decode_us", Stats.median (col (fun s -> s.decode_s)) *. 1e6);
        ("serve.http_ms", Bench.median_ms http);
        ("serve.cache_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ("serve.write_p90_ms", Bench.pct_ms w 90.);
        ("serve.read_p50_ms", Bench.pct_ms rd 50.);
        ("serve.read_p90_ms", Bench.pct_ms rd 90.);
        ("serve.request_p99_ms", Bench.pct_ms all_lat 99.);
        ("bench.gen_late_p99_ms", Bench.pct_ms late 99.);
      ]
    end
  in
  {
    Bench.attempted = n;
    failed;
    e2e =
      (if trace then []
       else
         [
           ("setup_s", Stats.quiet_median setup_s);
           ("throughput_per_s", throughput);
           ("op_p50_ms", Bench.op_p50_ms quiet_w);
           ("points_covered", covered);
         ]);
    report =
      [
        Bench.row ~samples:(Array.length setup_s) "setup_s" "s" (Stats.quiet_median setup_s);
        Bench.row ~samples:n "throughput_per_s" "1/s" throughput;
      ]
      @ Bench.pct_row "op_p50_ms" quiet_w 50.
      @ Bench.pct_row "write_p50_ms" w 50.
      @ Bench.pct_row "write_p90_ms" w 90.
      @ Bench.pct_row "read_p50_ms" rd 50.
      @ Bench.pct_row "read_p90_ms" rd 90.
      @ Bench.pct_row "request_p99_ms" all_lat 99.
      @ Bench.pct_row "gen_late_p50_ms" late 50.
      @ Bench.pct_row "gen_late_p99_ms" late 99.
      @ [
          Bench.row "latency_limit_ms" "ms" (latency_limit *. 1e3);
          Bench.row "offered_rate_per_s" "1/s" rate;
          Bench.row "points_covered" "count" covered;
        ];
    layers;
    shares = Trace.layer_totals ~root:"round" ~layer_of (Trace.spans ());
    gates;
  }
