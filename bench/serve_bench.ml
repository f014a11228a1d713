(** [bench serve]: throughput and tail latency of the coverage service,
    written to BENCH_serve.json for CI tracking.

    Three paths matter operationally, and the ETag cache is the whole
    point of the design (DESIGN.md "The coverage service"):

    - [POST /runs] ingest rate — the distributed-campaign write path
      (every request re-reads the manifest under the advisory lock and
      rewrites the aggregate);
    - cached [GET /report] — the hot read path: manifest stat + memory;
      also its [If-None-Match]/304 variant, which skips the body;
    - uncached [GET /report] — cache flushed before every request, so
      each one re-reads every counts file and re-renders.

    All requests ride one keep-alive connection from the in-module
    client against an in-process server on an ephemeral port. Latencies
    are per-request wall times into an {!Sic_obs.Obs.Histogram}; we
    report req/s, p50 and p99. SIC_BENCH_SMOKE=1 shrinks request counts
    so CI runs in seconds; the JSON layout is identical. *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db
module Obs = Sic_obs.Obs
module Json = Sic_obs.Json
module Serve = Sic_serve.Serve
module Client = Serve.Client

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* a synthetic counts map big enough that rendering costs something *)
let synthetic_counts n =
  Counts.of_list (List.init n (fun i -> (Printf.sprintf "cover_%04d" i, (i * 7) mod 50)))

type result = { rname : string; requests : int; req_per_s : float; p50_us : float; p99_us : float }

let bench_requests name n (f : int -> unit) : result =
  let h = Obs.Histogram.create () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let r0 = Unix.gettimeofday () in
    f i;
    Obs.Histogram.add h ((Unix.gettimeofday () -. r0) *. 1e6)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let r =
    {
      rname = name;
      requests = n;
      req_per_s = (if dt > 0. then float_of_int n /. dt else nan);
      p50_us = Obs.Histogram.percentile h 50.;
      p99_us = Obs.Histogram.percentile h 99.;
    }
  in
  Timing.row "%-24s %8d reqs %10.0f req/s %9.0f us p50 %9.0f us p99\n" r.rname r.requests
    r.req_per_s r.p50_us r.p99_us;
  r

let expect status (resp : Client.response) =
  if resp.Client.status <> status then
    failwith
      (Printf.sprintf "serve bench: expected %d, got %d: %s" status resp.Client.status
         resp.Client.body)

(* /watch fan-out: [n_subs] SSE subscribers attached while [n_events]
   runs are pushed on [c]; the latency sample is ingest-to-arrival per
   (event, subscriber) pair — the hub's broadcast cost as a consumer
   sees it. Subscribers match deltas to pushes by order (one /watch
   stream delivers in publish order). *)
let bench_watch_fanout url c ~seed0 ~body ~n_subs ~n_events : result =
  let h = Obs.Histogram.create () in
  let hm = Mutex.create () in
  let sent = Array.make n_events 0. in
  let ready = ref 0 in
  let subs =
    List.init n_subs (fun _ ->
        Thread.create
          (fun () ->
            let deltas = ref 0 in
            Client.watch
              ~on_event:(fun ~event ~data:_ ->
                (match event with
                | "hello" -> Mutex.protect hm (fun () -> incr ready)
                | "delta" ->
                    let now = Unix.gettimeofday () in
                    if !deltas < n_events then
                      Mutex.protect hm (fun () ->
                          Obs.Histogram.add h ((now -. sent.(!deltas)) *. 1e6));
                    incr deltas
                | _ -> ());
                !deltas < n_events)
              url)
          ())
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while Mutex.protect hm (fun () -> !ready) < n_subs && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if Mutex.protect hm (fun () -> !ready) < n_subs then
    failwith "serve bench: /watch subscribers never got their hello";
  let t0 = Unix.gettimeofday () in
  for i = 0 to n_events - 1 do
    sent.(i) <- Unix.gettimeofday ();
    expect 201
      (Client.request c ~body ~meth:"POST"
         ~target:
           (Printf.sprintf "/runs?design=bench&backend=bench&workload=bench&seed=%d&cycles=1"
              (seed0 + i))
         ())
  done;
  List.iter Thread.join subs;
  let dt = Unix.gettimeofday () -. t0 in
  let delivered = Obs.Histogram.count h in
  let r =
    {
      rname = Printf.sprintf "GET /watch fan-out (%d subs)" n_subs;
      requests = delivered;
      req_per_s = (if dt > 0. then float_of_int delivered /. dt else nan);
      p50_us = Obs.Histogram.percentile h 50.;
      p99_us = Obs.Histogram.percentile h 99.;
    }
  in
  Timing.row "%-24s %8d evts %10.0f evt/s %9.0f us p50 %9.0f us p99\n" r.rname r.requests
    r.req_per_s r.p50_us r.p99_us;
  r

let run () =
  let smoke = Sys.getenv_opt "SIC_BENCH_SMOKE" <> None in
  let points = if smoke then 50 else 500 in
  let n_post = if smoke then 10 else 200 in
  let n_cached = if smoke then 50 else 2000 in
  let n_uncached = if smoke then 10 else 100 in
  Timing.header
    (Printf.sprintf "serve: HTTP coverage service (%d-point runs%s)" points
       (if smoke then ", smoke" else ""));
  let db_dir = Printf.sprintf "serve_bench_db_%d" (Unix.getpid ()) in
  rm_rf db_dir;
  ignore (Db.init db_dir);
  let t = Serve.start ~port:0 ~threads:4 ~db_dir () in
  let results =
    Fun.protect
      ~finally:(fun () ->
        Serve.stop t;
        rm_rf db_dir)
      (fun () ->
        let counts = synthetic_counts points in
        let body = Counts.to_string counts in
        let c = Client.connect ~host:"127.0.0.1" ~port:(Serve.port t) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let ingest =
              bench_requests "POST /runs" n_post (fun i ->
                  expect 201
                    (Client.request c ~body ~meth:"POST"
                       ~target:
                         (Printf.sprintf
                            "/runs?design=bench&backend=bench&workload=bench&seed=%d&cycles=1"
                            i)
                       ()))
            in
            let get ?headers target = Client.request c ?headers ~meth:"GET" ~target () in
            (* warm the cache, and keep the etag for the 304 variant *)
            let warm = get "/report" in
            expect 200 warm;
            let etag = Option.get (Client.header warm "etag") in
            let cached =
              bench_requests "GET /report (cached)" n_cached (fun _ ->
                  expect 200 (get "/report"))
            in
            let conditional =
              bench_requests "GET /report (304)" n_cached (fun _ ->
                  expect 304 (get ~headers:[ ("if-none-match", etag) ] "/report"))
            in
            let uncached =
              bench_requests "GET /report (uncached)" n_uncached (fun _ ->
                  Serve.flush_cache t;
                  expect 200 (get "/report"))
            in
            let fanout =
              bench_watch_fanout
                (Printf.sprintf "http://127.0.0.1:%d" (Serve.port t))
                c ~seed0:100000 ~body
                ~n_subs:(if smoke then 4 else 16)
                ~n_events:(if smoke then 10 else 100)
            in
            [ ingest; cached; conditional; uncached; fanout ]))
  in
  Timing.write_json "BENCH_serve.json"
    [
      ("smoke", Json.Bool smoke);
      ("points", Json.Int points);
      ("runs_ingested", Json.Int n_post);
      ( "results",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.rname);
                   ("requests", Json.Int r.requests);
                   ("req_per_s", Json.Float r.req_per_s);
                   ("p50_us", Json.Float r.p50_us);
                   ("p99_us", Json.Float r.p99_us);
                 ])
             results) );
    ]
