(** Tests for the coverage service (lib/serve): the HTTP parser's edge
    cases on string-backed readers, and end-to-end server/client round
    trips on an ephemeral port — ingest via POST /runs, the union-max
    /report contract, ETag/If-None-Match revalidation, error mapping, and
    surviving a client that vanishes mid-request (the SIGPIPE case). *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db
module Json = Sic_obs.Json
module Serve = Sic_serve.Serve
module Http = Serve.Http
module Client = Serve.Client
open Helpers

let parse_str s = Http.parse_request (Http.Reader.of_string s)

let parse_ok s =
  match parse_str s with
  | Some req -> req
  | None -> Alcotest.fail "expected a parsed request, got EOF"

(* ---------------- parser units ---------------- *)

let test_parse_simple () =
  let req =
    parse_ok "GET /diff?a=r%200001&b=&flag HTTP/1.1\r\nHost: h:1\r\nX-Thing:  v \r\n\r\n"
  in
  Alcotest.(check string) "method" "GET" req.Http.meth;
  Alcotest.(check string) "path" "/diff" req.Http.path;
  Alcotest.(check string) "raw target kept" "/diff?a=r%200001&b=&flag" req.Http.target;
  Alcotest.(check (list (pair string string)))
    "query decoded"
    [ ("a", "r 0001"); ("b", ""); ("flag", "") ]
    req.Http.query;
  Alcotest.(check (option string)) "header lookup is case-insensitive" (Some "v")
    (Http.header req "X-THING");
  Alcotest.(check string) "no body" "" req.Http.body

let test_parse_body_and_keepalive () =
  let req =
    parse_ok "POST /runs HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nab cd"
  in
  Alcotest.(check string) "body" "ab cd" req.Http.body;
  Alcotest.(check (option string)) "connection header" (Some "close")
    (Http.header req "connection");
  (* two requests back to back on one reader: keep-alive framing works *)
  let r = Http.Reader.of_string "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n" in
  let first = Option.get (Http.parse_request r) in
  let second = Option.get (Http.parse_request r) in
  Alcotest.(check string) "first" "/a" first.Http.path;
  Alcotest.(check string) "second" "/b" second.Http.path;
  Alcotest.(check bool) "then EOF" true (Http.parse_request r = None)

let test_parse_eof () =
  Alcotest.(check bool) "empty input is a clean EOF" true (parse_str "" = None)

let expect_bad_request s =
  match parse_str s with
  | exception Http.Bad_request _ -> ()
  | exception e -> Alcotest.fail ("wrong exception: " ^ Printexc.to_string e)
  | _ -> Alcotest.fail ("parser accepted: " ^ String.escaped s)

let test_bad_request_line () =
  expect_bad_request "FOO\r\n\r\n";
  expect_bad_request "GET /x HTTP/2.0\r\n\r\n";
  expect_bad_request "GET  /two-spaces HTTP/1.1\r\n\r\n";
  expect_bad_request "G=T /x HTTP/1.1\r\n\r\n";
  (* EOF mid-line and mid-headers are malformed, not clean closes *)
  expect_bad_request "GET /x HTT";
  expect_bad_request "GET /x HTTP/1.1\r\nHost: h\r\n";
  (* a header line without a colon *)
  expect_bad_request "GET /x HTTP/1.1\r\nnocolon\r\n\r\n"

let test_oversized_header () =
  let big = String.make (Http.max_header_line + 10) 'a' in
  (match parse_str ("GET /x HTTP/1.1\r\nh: " ^ big ^ "\r\n\r\n") with
  | exception Http.Too_large _ -> ()
  | _ -> Alcotest.fail "oversized header accepted");
  let many =
    String.concat ""
      (List.init (Http.max_headers + 10) (fun i -> Printf.sprintf "h%d: v\r\n" i))
  in
  match parse_str ("GET /x HTTP/1.1\r\n" ^ many ^ "\r\n") with
  | exception Http.Too_large _ -> ()
  | _ -> Alcotest.fail "header flood accepted"

let test_truncated_body () =
  expect_bad_request "POST /runs HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort";
  expect_bad_request "POST /runs HTTP/1.1\r\ncontent-length: nan\r\n\r\n";
  expect_bad_request "POST /runs HTTP/1.1\r\ncontent-length: -4\r\n\r\n";
  (* an over-limit claim is rejected before any body is read *)
  match
    parse_str
      (Printf.sprintf "POST /runs HTTP/1.1\r\ncontent-length: %d\r\n\r\n" (Http.max_body + 1))
  with
  | exception Http.Payload_too_large _ -> ()
  | _ -> Alcotest.fail "oversized body claim accepted"

let test_percent_round_trip () =
  let s = "a b/c?d&e=f%g\x00h" in
  Alcotest.(check string) "decode inverts encode" s
    (Http.percent_decode (Http.percent_encode s));
  Alcotest.(check string) "plus decodes to space" "a b" (Http.percent_decode "a+b")

(* ---------------- end-to-end ---------------- *)

let with_server f =
  let dir = fresh_dir "serve_db" in
  ignore (Db.init dir);
  let t = Serve.start ~port:0 ~threads:2 ~db_dir:dir () in
  Fun.protect ~finally:(fun () -> Serve.stop t) (fun () -> f dir t)

let url t path = Printf.sprintf "http://127.0.0.1:%d%s" (Serve.port t) path

let push t ~seed counts =
  let r =
    Client.push_run ~url:(url t "") ~design:"d" ~backend:"test" ~workload:"unit" ~seed
      ~cycles:10 counts
  in
  Alcotest.(check int) "push answered 201" 201 r.Client.status;
  r

let test_e2e_report_is_union_max () =
  with_server @@ fun _dir t ->
  let c1 = Counts.of_list [ ("a", 3); ("b", 0) ] in
  let c2 = Counts.of_list [ ("a", 1); ("b", 2); ("c", 5) ] in
  ignore (push t ~seed:0 c1);
  ignore (push t ~seed:1 c2);
  let r = Client.get (url t "/report") in
  Alcotest.(check int) "report 200" 200 r.Client.status;
  let j = Json.parse r.Client.body in
  Alcotest.(check (option int)) "runs" (Some 2) (Json.int_member "runs" j);
  let got =
    match Json.member "counts" j with
    | Some (Json.Obj kvs) ->
        Counts.of_list
          (List.map
             (function name, Json.Int c -> (name, c) | _ -> Alcotest.fail "non-int count")
             kvs)
    | _ -> Alcotest.fail "no counts object in /report"
  in
  Alcotest.(check bool) "/report equals Counts.union_max" true
    (Counts.equal got (Counts.union_max [ c1; c2 ]));
  (* conditional revalidation: the second GET is answered 304, no body *)
  let etag = Option.get (Client.header r "etag") in
  let r2 = Client.get ~headers:[ ("if-none-match", etag) ] (url t "/report") in
  Alcotest.(check int) "revalidation is 304" 304 r2.Client.status;
  Alcotest.(check string) "304 has no body" "" r2.Client.body;
  (* a new push changes the stamp: the same If-None-Match now misses *)
  ignore (push t ~seed:2 (Counts.of_list [ ("d", 1) ]));
  let r3 = Client.get ~headers:[ ("if-none-match", etag) ] (url t "/report") in
  Alcotest.(check int) "stale etag re-fetches" 200 r3.Client.status;
  Alcotest.(check bool) "etag moved" true (Client.header r3 "etag" <> Some etag)

let test_e2e_endpoints () =
  with_server @@ fun dir t ->
  ignore (push t ~seed:0 (Counts.of_list [ ("a", 1); ("b", 0) ]));
  ignore (push t ~seed:1 (Counts.of_list [ ("a", 2); ("b", 3) ]));
  let ok path =
    let r = Client.get (url t path) in
    Alcotest.(check int) (path ^ " 200") 200 r.Client.status;
    r.Client.body
  in
  Alcotest.(check string) "healthz" "ok\n" (ok "/healthz");
  ignore (ok "/");
  ignore (ok "/rank");
  ignore (ok "/timelines");
  ignore (ok "/metrics");
  (match Json.parse (ok "/runs") with
  | Json.List rows -> Alcotest.(check int) "/runs rows" 2 (List.length rows)
  | _ -> Alcotest.fail "/runs is not a JSON list");
  let d = Json.parse (ok "/diff?a=r0001&b=r0002") in
  Alcotest.(check (option string)) "diff before" (Some "r0001") (Json.string_member "before" d);
  (match Json.member "newly_covered" d with
  | Some (Json.List [ Json.String "b" ]) -> ()
  | _ -> Alcotest.fail "diff newly_covered wrong");
  let html = ok "/report.html" in
  Alcotest.(check bool) "html page" true
    (String.length html > 100 && String.sub html 0 9 = "<!doctype");
  (* error mapping *)
  Alcotest.(check int) "unknown path is 404" 404 (Client.get (url t "/nope")).Client.status;
  Alcotest.(check int) "unknown run is 404" 404
    (Client.get (url t "/diff?a=r0001&b=r9999")).Client.status;
  Alcotest.(check int) "missing diff params is 400" 400
    (Client.get (url t "/diff")).Client.status;
  Alcotest.(check int) "bad counts body is 400" 400
    (Client.post ~body:"not a counts file" (url t "/runs")).Client.status;
  Alcotest.(check int) "bad method is 405" 405
    (Client.call ~meth:"PUT" (url t "/report")).Client.status;
  (* a corrupt file on disk is the server's fault, and the error says where *)
  let oc = open_out (Filename.concat dir "r0001.cnt") in
  output_string oc "# sic coverage counts v1\n1 a\nnope b\n";
  close_out oc;
  let r = Client.get (url t "/report") in
  Alcotest.(check int) "corrupt run file is 500" 500 r.Client.status;
  Alcotest.(check bool) "500 names the file and line" true
    (contains ~needle:"r0001.cnt: line 3:" r.Client.body)

let test_e2e_keep_alive () =
  with_server @@ fun _dir t ->
  let c = Client.connect ~host:"127.0.0.1" ~port:(Serve.port t) in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let r1 = Client.request c ~meth:"GET" ~target:"/healthz" () in
      let r2 = Client.request c ~meth:"GET" ~target:"/healthz" () in
      Alcotest.(check (pair int int)) "two requests, one connection" (200, 200)
        (r1.Client.status, r2.Client.status))

(* A client that vanishes mid-request must cost the server nothing but a
   connection: the worker writes into a dead socket (EPIPE — fatal
   process-wide if SIGPIPE were not ignored) and moves on. *)
let test_e2e_client_vanishes () =
  with_server @@ fun _dir t ->
  let abrupt payload =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Serve.port t));
    let b = Bytes.of_string payload in
    ignore (Unix.write fd b 0 (Bytes.length b));
    (* kill the connection without reading the response *)
    Unix.close fd
  in
  (* half a request: the server's 400 goes to a closed socket *)
  abrupt "POST /runs HTTP/1.1\r\ncontent-length: 10000\r\n\r\ntruncated";
  (* a complete request whose response has nowhere to go *)
  abrupt "GET /report HTTP/1.1\r\n\r\n";
  (* give the workers a beat to hit the dead sockets *)
  Unix.sleepf 0.05;
  let r = Client.get (url t "/healthz") in
  Alcotest.(check int) "server survives dead clients" 200 r.Client.status

let test_e2e_push_is_idempotent_for_report () =
  with_server @@ fun _dir t ->
  let c = Counts.of_list [ ("a", 2); ("b", 1) ] in
  ignore (push t ~seed:0 c);
  let once = (Client.get (url t "/report")).Client.body in
  (* an at-least-once delivery retry: same counts land as a second run *)
  ignore (push t ~seed:0 c);
  let twice = Client.get (url t "/report") in
  let strip j = List.remove_assoc "runs" j |> List.remove_assoc "ok" in
  match (Json.parse once, Json.parse twice.Client.body) with
  | Json.Obj a, Json.Obj b ->
      Alcotest.(check bool) "union-max merge unchanged by the duplicate" true
        (Json.equal (Json.Obj (strip a)) (Json.Obj (strip b)))
  | _ -> Alcotest.fail "/report is not a JSON object"

(* ---------------- SSE units ---------------- *)

let test_sse_frame () =
  Alcotest.(check string) "plain data frame" "data: hi\n\n" (Serve.Sse.frame "hi");
  Alcotest.(check string) "named event"
    "event: delta\ndata: {\"x\":1}\n\n"
    (Serve.Sse.frame ~event:"delta" "{\"x\":1}");
  Alcotest.(check string) "multiline data splits into data: lines"
    "data: a\ndata: b\n\n"
    (Serve.Sse.frame "a\nb");
  Alcotest.(check string) "CRs are dropped" "data: ab\n\n" (Serve.Sse.frame "a\rb");
  Alcotest.(check string) "newline in event name flattened"
    "event: a b\ndata: x\n\n"
    (Serve.Sse.frame ~event:"a\nb" "x");
  Alcotest.(check string) "comment" ": keep alive\n\n" (Serve.Sse.comment "keep alive");
  Alcotest.(check string) "heartbeat" ": hb 3\n\n" (Serve.Sse.heartbeat 3)

let test_sse_decoder () =
  let d = Serve.Sse.Decoder.create () in
  let feed = Serve.Sse.Decoder.line d in
  (* comments and empty frames dispatch nothing *)
  Alcotest.(check (option (pair string string))) "comment" None (feed ": hb 0");
  Alcotest.(check (option (pair string string))) "separator alone" None (feed "");
  (* a default-named event *)
  Alcotest.(check (option (pair string string))) "accumulating" None (feed "data: hi");
  Alcotest.(check (option (pair string string)))
    "default event name" (Some ("message", "hi")) (feed "");
  (* named, multi-line data joins with \n; unknown fields ignored *)
  ignore (feed "event: delta");
  ignore (feed "id: 42");
  ignore (feed "data: a");
  ignore (feed "data: b");
  Alcotest.(check (option (pair string string))) "named event" (Some ("delta", "a\nb")) (feed "");
  (* event: without data: is dropped per spec *)
  ignore (feed "event: empty");
  Alcotest.(check (option (pair string string))) "no data, no dispatch" None (feed "");
  (* trailing CR (CRLF streams) is stripped *)
  ignore (feed "data: x\r");
  Alcotest.(check (option (pair string string))) "CRLF tolerated" (Some ("message", "x")) (feed "")

let test_sse_roundtrip () =
  let frames =
    [ ("hello", "{\"runs\":0}"); ("delta", "line1\nline2"); ("message", "plain") ]
  in
  let wire =
    String.concat ""
      (List.map
         (fun (ev, data) ->
           let f =
             if ev = "message" then Serve.Sse.frame data else Serve.Sse.frame ~event:ev data
           in
           f ^ Serve.Sse.heartbeat 1)
         frames)
  in
  let d = Serve.Sse.Decoder.create () in
  let got = ref [] in
  String.split_on_char '\n' wire
  |> List.iter (fun l ->
         match Serve.Sse.Decoder.line d l with
         | Some e -> got := e :: !got
         | None -> ());
  Alcotest.(check (list (pair string string))) "encode/decode round trip" frames (List.rev !got)

(* ---------------- live plane e2e ---------------- *)

(* One push while a /watch subscriber is connected: the subscriber gets a
   [hello] snapshot then exactly one [delta], and a graceful [stop] with
   the subscriber still attached hangs up cleanly (the drain test — the
   watcher thread must come back on its own). *)
let test_e2e_watch_one_delta () =
  let dir = fresh_dir "serve_db" in
  ignore (Db.init dir);
  let t = Serve.start ~port:0 ~threads:2 ~db_dir:dir () in
  let m = Mutex.create () in
  let events = ref [] in
  let record ~event ~data =
    Mutex.protect m (fun () -> events := (event, data) :: !events);
    true
  in
  let watcher = Thread.create (fun () -> Client.watch ~on_event:record (url t "")) () in
  let wait_for what pred =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while
      (not (Mutex.protect m (fun () -> List.exists pred !events)))
      && Unix.gettimeofday () < deadline
    do
      Thread.yield ();
      Unix.sleepf 0.01
    done;
    if not (Mutex.protect m (fun () -> List.exists pred !events)) then
      Alcotest.fail ("timed out waiting for " ^ what)
  in
  wait_for "hello" (fun (ev, _) -> ev = "hello");
  let accepted = push t ~seed:0 (Counts.of_list [ ("a", 2); ("b", 0) ]) in
  wait_for "delta" (fun (ev, _) -> ev = "delta");
  let deltas =
    Mutex.protect m (fun () -> List.filter (fun (ev, _) -> ev = "delta") !events)
  in
  Alcotest.(check int) "exactly one delta for one push" 1 (List.length deltas);
  let d = Json.parse (snd (List.hd deltas)) in
  let run_id = Json.string_member "id" (Json.parse accepted.Client.body) in
  Alcotest.(check (option string)) "delta names the accepted run" run_id
    (Json.string_member "run" d);
  Alcotest.(check (option int)) "one point newly covered" (Some 1)
    (Json.int_member "newly_covered" d);
  Alcotest.(check (option int)) "covered" (Some 1) (Json.int_member "covered" d);
  Alcotest.(check (option int)) "total" (Some 2) (Json.int_member "total" d);
  Alcotest.(check (option int)) "runs" (Some 1) (Json.int_member "runs" d);
  (* graceful drain with a live subscriber: stop must hang the stream up
     and the watcher thread must terminate *)
  Serve.stop t;
  Thread.join watcher

(* A /watch subscriber that vanishes costs the server nothing: the next
   broadcasts hit EPIPE, the subscriber is dropped, and ingest goes on. *)
let test_e2e_dead_subscriber () =
  with_server @@ fun _dir t ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Serve.port t));
  let req = Bytes.of_string "GET /watch HTTP/1.1\r\nhost: h\r\n\r\n" in
  ignore (Unix.write fd req 0 (Bytes.length req));
  (* read a little of the stream so we know the subscriber is attached *)
  ignore (Unix.read fd (Bytes.create 64) 0 64);
  Unix.close fd;
  (* two pushes: the first broadcast may land in the dead socket's kernel
     buffer; the second must surface EPIPE and reap the subscriber *)
  ignore (push t ~seed:0 (Counts.of_list [ ("a", 1) ]));
  ignore (push t ~seed:1 (Counts.of_list [ ("b", 1) ]));
  let deadline = Unix.gettimeofday () +. 5.0 in
  let gone = ref false in
  while (not !gone) && Unix.gettimeofday () < deadline do
    let j = Json.parse (Client.get (url t "/metrics")).Client.body in
    (match Json.member "sse" j with
    | Some sse ->
        if
          Json.int_member "subscribers" sse = Some 0
          && (match Json.int_member "dropped" sse with Some n -> n >= 1 | None -> false)
        then gone := true
    | None -> Alcotest.fail "/metrics has no sse section");
    if not !gone then Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "dead subscriber reaped (dropped>=1, subscribers=0)" true !gone;
  Alcotest.(check int) "server still healthy" 200 (Client.get (url t "/healthz")).Client.status

let test_e2e_observability_endpoints () =
  with_server @@ fun _dir t ->
  ignore (push t ~seed:0 (Counts.of_list [ ("a", 1) ]));
  (* /dashboard: one self-contained HTML page that subscribes to /watch *)
  let r = Client.get (url t "/dashboard") in
  Alcotest.(check int) "/dashboard 200" 200 r.Client.status;
  let html = r.Client.body in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dashboard is html" true (String.sub html 0 9 = "<!doctype");
  Alcotest.(check bool) "dashboard subscribes to /watch" true (contains html "EventSource");
  Alcotest.(check bool) "dashboard is self-contained" false
    (contains html "http://" || contains html "https://");
  (* /metrics.prom: Prometheus text exposition *)
  let p = Client.get (url t "/metrics.prom") in
  Alcotest.(check int) "/metrics.prom 200" 200 p.Client.status;
  Alcotest.(check bool) "prom content type" true
    (match Client.header p "content-type" with
    | Some ct -> contains ct "text/plain"
    | None -> false);
  Alcotest.(check bool) "starts with # HELP" true (String.sub p.Client.body 0 6 = "# HELP");
  Alcotest.(check bool) "requests counter present" true
    (contains p.Client.body "sic_requests_total");
  Alcotest.(check bool) "every line is comment or sample" true
    (String.split_on_char '\n' p.Client.body
    |> List.for_all (fun l ->
           l = "" || l.[0] = '#'
           || String.contains l ' ' && String.sub l 0 4 = "sic_"));
  (* content negotiation: Accept: text/plain flips /metrics to Prometheus *)
  let neg = Client.get ~headers:[ ("accept", "text/plain") ] (url t "/metrics") in
  Alcotest.(check bool) "Accept: text/plain negotiates prom" true
    (String.sub neg.Client.body 0 6 = "# HELP");
  let j = Json.parse (Client.get (url t "/metrics")).Client.body in
  (* unknown paths land in the bounded "other" bucket, not as fresh keys *)
  ignore (Client.get (url t "/nope-cardinality-bomb"));
  let j2 = Json.parse (Client.get (url t "/metrics")).Client.body in
  (match Json.member "requests" j2 with
  | Some (Json.Obj kvs) ->
      Alcotest.(check bool) "other bucket exists" true (List.mem_assoc "other" kvs);
      Alcotest.(check bool) "unknown path is not its own key" false
        (List.exists (fun (k, _) -> contains k "nope") kvs)
  | _ -> Alcotest.fail "/metrics requests is not an object");
  (* per-endpoint latency: a summary keyed by route label *)
  match Json.member "latency" j with
  | Some (Json.Obj kvs) ->
      Alcotest.(check bool) "latency keyed per route" true
        (List.exists (fun (k, _) -> contains k "POST /runs") kvs);
      let _, sample = List.hd kvs in
      Alcotest.(check bool) "summary has count" true (Json.member "count" sample <> None)
  | _ -> Alcotest.fail "/metrics latency is not an object"

let tests =
  [
    Alcotest.test_case "http: simple request" `Quick test_parse_simple;
    Alcotest.test_case "http: body + keep-alive framing" `Quick test_parse_body_and_keepalive;
    Alcotest.test_case "http: clean EOF" `Quick test_parse_eof;
    Alcotest.test_case "http: bad request lines" `Quick test_bad_request_line;
    Alcotest.test_case "http: oversized headers" `Quick test_oversized_header;
    Alcotest.test_case "http: truncated/oversized bodies" `Quick test_truncated_body;
    Alcotest.test_case "http: percent coding" `Quick test_percent_round_trip;
    Alcotest.test_case "e2e: /report = union_max, etag/304" `Quick test_e2e_report_is_union_max;
    Alcotest.test_case "e2e: every endpoint + error mapping" `Quick test_e2e_endpoints;
    Alcotest.test_case "e2e: keep-alive connection reuse" `Quick test_e2e_keep_alive;
    Alcotest.test_case "e2e: client vanishing mid-request" `Quick test_e2e_client_vanishes;
    Alcotest.test_case "e2e: duplicate push is idempotent" `Quick
      test_e2e_push_is_idempotent_for_report;
    Alcotest.test_case "sse: frame encoder" `Quick test_sse_frame;
    Alcotest.test_case "sse: decoder" `Quick test_sse_decoder;
    Alcotest.test_case "sse: encode/decode round trip" `Quick test_sse_roundtrip;
    Alcotest.test_case "e2e: /watch one push, one delta, clean drain" `Quick
      test_e2e_watch_one_delta;
    Alcotest.test_case "e2e: dead /watch subscriber is reaped" `Quick test_e2e_dead_subscriber;
    Alcotest.test_case "e2e: dashboard, prometheus, route buckets" `Quick
      test_e2e_observability_endpoints;
  ]
