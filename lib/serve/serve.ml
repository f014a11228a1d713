(** The coverage service: a dependency-free HTTP/1.1 server over a
    {!Sic_db.Db} database directory, plus the matching in-process client.

    The paper's common counts format means every producer — any simulator,
    the fuzzer, the BMC engine, an FPGA host, on any machine — reports the
    same [cover point -> count] map, and merging is trivial (§5.3). This
    module closes the distribution gap: remote producers [POST /runs]
    their counts files to one server, and everyone reads one merged
    [GET /report]. The wire format {e is} the on-disk format (the counts
    v1 interchange text), so a push is literally an upload of the file a
    local run would have written.

    Design constraints, in the repo's no-dependency style:

    - hand-rolled HTTP/1.1 over [Unix] sockets: request parser with
      hard limits on request line, header and body sizes, keep-alive
      responses with explicit [Content-Length] (never chunked);
    - a bounded accept queue feeding a fixed pool of worker threads —
      when the queue is full the server answers [503] immediately instead
      of accumulating unbounded connections;
    - responses that read the database ([/report], [/rank], ...) are
      cached and tagged with an ETag keyed on {!Db.manifest_stamp}, so
      hot report traffic on an unchanged database re-reads no counts
      files and conditional requests ([If-None-Match]) are answered
      [304] without a body;
    - writes go through {!Db.Lock}, so the server coexists with
      concurrent [sic db add] / [sic campaign] writers on the same
      directory;
    - [SIGPIPE] is ignored process-wide and [EPIPE]/[ECONNRESET] are
      per-connection errors: a client vanishing mid-request never kills
      the server;
    - graceful shutdown: SIGINT/SIGTERM (or {!stop}) stop the accept
      loop, drain queued connections, and join every worker. *)

module Counts = Sic_coverage.Counts
module Db = Sic_db.Db
module Json = Sic_obs.Json
module Obs = Sic_obs.Obs

(** Ignore SIGPIPE for the whole process so a write to a vanished peer
    (socket or pipe) raises [Unix_error (EPIPE, _, _)] — a per-connection
    condition the caller handles — instead of killing the process. Called
    by {!start}; [sic] also calls it at startup for the fleet pipes. *)
let ignore_sigpipe () =
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------------ *)
(* HTTP/1.1, the small subset we speak                                  *)
(* ------------------------------------------------------------------ *)

module Http = struct
  exception Bad_request of string
  exception Too_large of string (* request line or headers: 431 *)
  exception Payload_too_large of string (* body: 413 *)

  let max_request_line = 8192
  let max_header_line = 8192
  let max_headers = 100
  let max_body = 16 * 1024 * 1024

  type request = {
    meth : string;
    target : string;  (** raw request target, e.g. ["/diff?a=r0001&b=r0002"] *)
    path : string;  (** decoded path component *)
    query : (string * string) list;  (** decoded query parameters *)
    version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
    headers : (string * string) list;  (** names lowercased *)
    body : string;
  }

  (** A buffered byte reader over any [read]-like function, so the parser
      is testable on strings and runs unchanged over sockets. *)
  module Reader = struct
    type t = {
      fill : bytes -> int -> int -> int;
      buf : Bytes.t;
      mutable pos : int;
      mutable len : int;
    }

    let create fill = { fill; buf = Bytes.create 8192; pos = 0; len = 0 }
    let of_fd fd = create (fun b off len -> Unix.read fd b off len)

    let of_string s =
      let consumed = ref 0 in
      create (fun b off len ->
          let n = min len (String.length s - !consumed) in
          Bytes.blit_string s !consumed b off n;
          consumed := !consumed + n;
          n)

    let buffered r = r.len - r.pos

    (* false at EOF *)
    let refill r =
      if r.pos < r.len then true
      else begin
        r.pos <- 0;
        r.len <- r.fill r.buf 0 (Bytes.length r.buf);
        r.len > 0
      end

    let byte r =
      if refill r then begin
        let c = Bytes.get r.buf r.pos in
        r.pos <- r.pos + 1;
        Some c
      end
      else None
  end

  (* one CRLF- (or bare-LF-) terminated line, without the terminator.
     [None] only on EOF before the first byte — a peer that closed
     between requests; EOF mid-line is a malformed request. *)
  let read_line ?(limit = max_header_line) (r : Reader.t) : string option =
    let b = Buffer.create 128 in
    let rec go () =
      match Reader.byte r with
      | None ->
          if Buffer.length b = 0 then None
          else raise (Bad_request "unexpected end of input inside a line")
      | Some '\n' ->
          let s = Buffer.contents b in
          let n = String.length s in
          Some (if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s)
      | Some c ->
          if Buffer.length b >= limit then raise (Too_large "line too long");
          Buffer.add_char b c;
          go ()
    in
    go ()

  let read_exact (r : Reader.t) n : string =
    let out = Bytes.create n in
    let got = ref 0 in
    while !got < n do
      if not (Reader.refill r) then
        raise
          (Bad_request (Printf.sprintf "truncated body (%d of %d bytes)" !got n));
      let take = min (r.Reader.len - r.Reader.pos) (n - !got) in
      Bytes.blit r.Reader.buf r.Reader.pos out !got take;
      r.Reader.pos <- r.Reader.pos + take;
      got := !got + take
    done;
    Bytes.to_string out

  let hex_val c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None

  let percent_decode s =
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '%' when !i + 2 < n -> (
          match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
          | Some h, Some l ->
              Buffer.add_char b (Char.chr ((h * 16) + l));
              i := !i + 2
          | _ -> Buffer.add_char b '%')
      | '+' -> Buffer.add_char b ' '
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b

  let percent_encode s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
            Buffer.add_char b c
        | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
      s;
    Buffer.contents b

  let parse_target target =
    match String.index_opt target '?' with
    | None -> (percent_decode target, [])
    | Some i ->
        let path = String.sub target 0 i in
        let q = String.sub target (i + 1) (String.length target - i - 1) in
        let params =
          String.split_on_char '&' q
          |> List.filter (fun kv -> kv <> "")
          |> List.map (fun kv ->
                 match String.index_opt kv '=' with
                 | None -> (percent_decode kv, "")
                 | Some j ->
                     ( percent_decode (String.sub kv 0 j),
                       percent_decode (String.sub kv (j + 1) (String.length kv - j - 1)) ))
        in
        (percent_decode path, params)

  let is_token s =
    s <> ""
    && String.for_all
         (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
         s

  let read_headers (r : Reader.t) : (string * string) list =
    let rec go acc n =
      if n > max_headers then raise (Too_large "too many headers");
      match read_line r with
      | None -> raise (Bad_request "unexpected end of input inside headers")
      | Some "" -> List.rev acc
      | Some line -> (
          match String.index_opt line ':' with
          | None | Some 0 -> raise (Bad_request ("malformed header line: " ^ line))
          | Some i ->
              let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
              let value =
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              in
              go ((name, value) :: acc) (n + 1))
    in
    go [] 0

  (** Parse one request off the reader. [None] on a clean EOF before the
      first byte (the peer closed an idle connection); raises
      {!Bad_request} / {!Too_large} / {!Payload_too_large} otherwise. *)
  let parse_request (r : Reader.t) : request option =
    match read_line ~limit:max_request_line r with
    | None -> None
    | Some line -> (
        match String.split_on_char ' ' line with
        | [ meth; target; version ]
          when is_token meth
               && target <> ""
               && (version = "HTTP/1.1" || version = "HTTP/1.0") ->
            let headers = read_headers r in
            let body =
              match List.assoc_opt "content-length" headers with
              | None -> ""
              | Some v -> (
                  match int_of_string_opt (String.trim v) with
                  | None -> raise (Bad_request ("bad content-length: " ^ v))
                  | Some n when n < 0 -> raise (Bad_request ("bad content-length: " ^ v))
                  | Some n when n > max_body ->
                      raise
                        (Payload_too_large
                           (Printf.sprintf "body of %d bytes exceeds the %d-byte limit" n
                              max_body))
                  | Some n -> read_exact r n)
            in
            let path, query = parse_target target in
            Some { meth; target; path; query; version; headers; body }
        | _ -> raise (Bad_request ("malformed request line: " ^ line)))

  let header (req : request) name = List.assoc_opt (String.lowercase_ascii name) req.headers

  let status_text = function
    | 200 -> "OK"
    | 201 -> "Created"
    | 304 -> "Not Modified"
    | 400 -> "Bad Request"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | 413 -> "Content Too Large"
    | 431 -> "Request Header Fields Too Large"
    | 500 -> "Internal Server Error"
    | 503 -> "Service Unavailable"
    | _ -> "Status"

  (** Serialize one response. [304] carries headers but no body (and no
      [Content-Length]), per RFC 9110; everything else gets an explicit
      [Content-Length] so keep-alive needs no chunking. *)
  let response ~status ?(content_type = "text/plain; charset=utf-8") ?(extra = [])
      ?(keep_alive = true) (body : string) : string =
    let b = Buffer.create (String.length body + 256) in
    Buffer.add_string b (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
    Buffer.add_string b
      (if keep_alive then "connection: keep-alive\r\n" else "connection: close\r\n");
    List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) extra;
    if status <> 304 then begin
      Buffer.add_string b (Printf.sprintf "content-type: %s\r\n" content_type);
      Buffer.add_string b (Printf.sprintf "content-length: %d\r\n" (String.length body))
    end;
    Buffer.add_string b "\r\n";
    if status <> 304 then Buffer.add_string b body;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Server-sent events                                                   *)
(* ------------------------------------------------------------------ *)

(** The SSE wire subset [GET /watch] speaks: [event:]/[data:] frames
    terminated by a blank line, plus [:]-prefixed comment lines used as
    keep-alive heartbeats. The encoder is total — newlines in event
    names and comments are flattened, multi-line data becomes multiple
    [data:] lines — and the matching line-fed {!Decoder} drives
    {!Client.watch}, [sic watch], the bench fan-out and the tests. *)
module Sse = struct
  (* event names and comments are single-line by construction *)
  let flatten s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

  let frame ?event (data : string) : string =
    let b = Buffer.create (String.length data + 32) in
    (match event with
    | Some name -> Buffer.add_string b ("event: " ^ flatten name ^ "\n")
    | None -> ());
    let data = String.concat "" (String.split_on_char '\r' data) in
    List.iter
      (fun line -> Buffer.add_string b ("data: " ^ line ^ "\n"))
      (String.split_on_char '\n' data);
    Buffer.add_char b '\n';
    Buffer.contents b

  let comment s = ": " ^ flatten s ^ "\n\n"
  let heartbeat n = comment (Printf.sprintf "hb %d" n)

  (** Reassemble events from a line-split stream (line terminators
      already stripped, as {!Http.read_line} yields them). *)
  module Decoder = struct
    type t = { mutable ev : string; data : Buffer.t; mutable have_data : bool }

    let create () = { ev = ""; data = Buffer.create 256; have_data = false }

    let reset d =
      d.ev <- "";
      Buffer.clear d.data;
      d.have_data <- false

    (* [Some (event, data)] when [s] is the blank line completing an
       event; comments and fields we don't speak are skipped. An event
       with no [data:] line is dropped, per the SSE dispatch rules. *)
    let line d (s : string) : (string * string) option =
      let s =
        let n = String.length s in
        if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
      in
      if s = "" then
        if d.have_data then begin
          let ev = if d.ev = "" then "message" else d.ev in
          let data = Buffer.contents d.data in
          reset d;
          Some (ev, data)
        end
        else begin
          reset d;
          None
        end
      else if s.[0] = ':' then None
      else begin
        let field, value =
          match String.index_opt s ':' with
          | None -> (s, "")
          | Some i ->
              let v = String.sub s (i + 1) (String.length s - i - 1) in
              let v =
                if String.length v > 0 && v.[0] = ' ' then
                  String.sub v 1 (String.length v - 1)
                else v
              in
              (String.sub s 0 i, v)
        in
        (match field with
        | "event" -> d.ev <- value
        | "data" ->
            if d.have_data then Buffer.add_char d.data '\n';
            Buffer.add_string d.data value;
            d.have_data <- true
        | _ -> ());
        None
      end
  end
end

(* ------------------------------------------------------------------ *)
(* The /watch hub                                                       *)
(* ------------------------------------------------------------------ *)

type sse_event = { seq : int; ev_name : string; ev_data : string }

(** Fan-out point between ingest and the SSE subscriber threads: a
    publish appends to a bounded backlog and broadcasts; each subscriber
    drains whatever is newer than its own cursor. Publishing never
    blocks on a slow subscriber — a laggard that falls more than
    [backlog_limit] events behind just misses the overwritten ones. *)
type hub = {
  hm : Mutex.t;
  hc : Condition.t;
  mutable seq : int;
  mutable backlog : sse_event list;  (** newest first, at most [backlog_limit] *)
  mutable hub_closed : bool;
  mutable subscribers : int;
  mutable sse_threads : Thread.t list;
}

let backlog_limit = 256

let hub_create () =
  {
    hm = Mutex.create ();
    hc = Condition.create ();
    seq = 0;
    backlog = [];
    hub_closed = false;
    subscribers = 0;
    sse_threads = [];
  }

let rec take n l =
  match l with [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let hub_publish h ~event ~data =
  Mutex.protect h.hm (fun () ->
      h.seq <- h.seq + 1;
      h.backlog <-
        { seq = h.seq; ev_name = event; ev_data = data } :: take (backlog_limit - 1) h.backlog;
      Condition.broadcast h.hc)

(* no more events will ever be published; subscribers say goodbye and
   hang up (the graceful-drain path) *)
let hub_close h =
  Mutex.protect h.hm (fun () ->
      h.hub_closed <- true;
      Condition.broadcast h.hc)

(* ------------------------------------------------------------------ *)
(* Server state                                                         *)
(* ------------------------------------------------------------------ *)

type metrics = {
  mm : Mutex.t;
  requests : (string, int) Hashtbl.t;  (** route label ("GET /report") -> count *)
  statuses : (int, int) Hashtbl.t;
  latency : (string, Obs.Histogram.t) Hashtbl.t;
      (** route label -> per-request wall time, microseconds *)
  mutable connections : int;
  mutable ingested : int;  (** runs accepted by POST /runs *)
  mutable epipe : int;  (** peers that vanished mid-response *)
  mutable dropped_busy : int;  (** connections refused with 503 *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sse_events : int;  (** events published to /watch subscribers *)
  mutable sse_dropped : int;  (** /watch subscribers that vanished mid-stream *)
}

(** What the server knows about one producer, keyed by the worker id it
    attaches to [POST /heartbeat] and [POST /runs?worker=]. Guarded by
    [metrics.mm]. *)
type wstate = {
  mutable last_seen : float;  (** [Unix.gettimeofday] of the last signal *)
  mutable w_job : int;
  mutable w_design : string;
  mutable w_backend : string;
  mutable w_cycles : int;
  mutable w_covered : int;
  mutable w_runs : int;  (** runs ingested carrying this worker id *)
}

(** A worker counts as live while its last heartbeat or push is at most
    this old — campaign heartbeats arrive every ~0.5 s when forwarding. *)
let worker_active_s = 10.0

type t = {
  db_dir : string;
  host : string;
  port : int;
  listen_fd : Unix.file_descr;
  stop_rd : Unix.file_descr;
  stop_wr : Unix.file_descr;
  queue : Unix.file_descr Queue.t;
  queue_limit : int;
  qm : Mutex.t;
  qc : Condition.t;
  mutable stopping : bool;
  mutable workers : Thread.t list;
  mutable acceptor : Thread.t option;
  db_m : Mutex.t;  (** serializes DB access and the response cache *)
  mutable db : Db.t;
  cache : (string, string * string * string) Hashtbl.t;
      (** request target -> (etag, content type, body) *)
  metrics : metrics;
  hub : hub;  (** ingest -> /watch fan-out *)
  producers : (string, wstate) Hashtbl.t;  (** worker id -> state, under [metrics.mm] *)
  sse_heartbeat_s : float;  (** idle gap before a keep-alive comment on /watch *)
  mutable ticker : Thread.t option;  (** periodic hub broadcast (heartbeat clock) *)
}

let port t = t.port

let flush_cache t =
  Mutex.protect t.db_m (fun () -> Hashtbl.reset t.cache)

(* a single recorder lock: Obs's internal lists are not thread-safe *)
let obs_m = Mutex.create ()

let write_all fd (s : string) =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let publish t ~event ~data =
  Mutex.protect t.metrics.mm (fun () -> t.metrics.sse_events <- t.metrics.sse_events + 1);
  hub_publish t.hub ~event ~data

(* record a signal (heartbeat or tagged push) from [worker] and update
   its table row; the empty id means an anonymous producer *)
let touch_producer t worker (f : wstate -> unit) =
  if worker <> "" then
    Mutex.protect t.metrics.mm (fun () ->
        let w =
          match Hashtbl.find_opt t.producers worker with
          | Some w -> w
          | None ->
              let w =
                {
                  last_seen = 0.;
                  w_job = -1;
                  w_design = "";
                  w_backend = "";
                  w_cycles = 0;
                  w_covered = 0;
                  w_runs = 0;
                }
              in
              Hashtbl.add t.producers worker w;
              w
        in
        w.last_seen <- Unix.gettimeofday ();
        f w)

let active_producers t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.metrics.mm (fun () ->
      Hashtbl.fold
        (fun _ w acc -> if now -. w.last_seen <= worker_active_s then acc + 1 else acc)
        t.producers 0)

(* Per-kind coverage split for delta events and the dashboard tiles.
   The instrumentation passes encode the kind in the point name: [l_*]
   line, [t_*] toggle, [fsm_*] FSM states/arcs, [rv_*] ready-valid, and
   the mux toggles end in [_T]/[_F]. *)
let kind_of_point name =
  let pre p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  let suf s =
    let n = String.length name and k = String.length s in
    n >= k && String.sub name (n - k) k = s
  in
  if pre "l_" then "line"
  else if pre "t_" then "toggle"
  else if pre "fsm_" then "fsm"
  else if pre "rv_" then "ready_valid"
  else if suf "_T" || suf "_F" then "mux"
  else "other"

let kinds_json (agg : Counts.t) : Json.t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, c) ->
      let k = kind_of_point name in
      let cov, tot = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k ((if c > 0 then cov + 1 else cov), tot + 1))
    (Counts.to_sorted_list agg);
  Json.Obj
    (Hashtbl.fold
       (fun k (c, tot) acc ->
         (k, Json.Obj [ ("covered", Json.Int c); ("total", Json.Int tot) ]) :: acc)
       tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* ------------------------------------------------------------------ *)
(* Handlers                                                             *)
(* ------------------------------------------------------------------ *)

type reply = {
  status : int;
  content_type : string;
  extra : (string * string) list;
  body : string;
}

let text ?(extra = []) status body =
  { status; content_type = "text/plain; charset=utf-8"; extra; body }

let json ?(extra = []) status (j : Json.t) =
  { status; content_type = "application/json"; extra; body = Json.to_string j ^ "\n" }

let json_of_string_list l = Json.List (List.map (fun s -> Json.String s) l)

let report_json (db : Db.t) : string =
  let union = Db.union_counts db in
  let ok = List.length (Db.ok_runs db) and all = List.length (Db.runs db) in
  (* formally excluded points are off the books, as in the text report:
     totals range over non-excluded points only (identical to before when
     the database has no exclusion artifact) *)
  let excluded = Db.excluded_names db in
  let live =
    List.filter (fun n -> not (List.mem n excluded)) (Counts.names union)
  in
  Json.to_string
    (Json.Obj
       [
         ("runs", Json.Int all);
         ("ok", Json.Int ok);
         ("failed", Json.Int (all - ok));
         ("points_total", Json.Int (List.length live));
         ( "points_covered",
           Json.Int (List.length (List.filter (fun n -> Counts.get union n > 0) live)) );
         ("points_excluded", Json.Int (List.length excluded));
         ("excluded", json_of_string_list excluded);
         ( "counts",
           Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) (Counts.to_sorted_list union))
         );
       ])
  ^ "\n"

let report_html (db : Db.t) : string =
  let timelines =
    List.filter_map
      (fun (r : Db.run) ->
        Option.map
          (fun tl -> (Printf.sprintf "%s %s/%s" r.Db.id r.Db.design r.Db.backend, tl))
          (Db.load_timeline db r))
      (Db.ok_runs db)
  in
  Sic_coverage.Html_report.render
    ~title:("coverage database " ^ Db.dir db)
    ~timelines
    ~excluded:(Db.excluded_names db)
    (Db.union_counts db)

let runs_json (db : Db.t) : string =
  Json.to_string (Json.List (List.map Db.json_of_run (Db.runs db))) ^ "\n"

let diff_json (req : Http.request) (db : Db.t) : string =
  let param k =
    match List.assoc_opt k req.Http.query with
    | Some v when v <> "" -> v
    | _ ->
        raise
          (Http.Bad_request
             (Printf.sprintf "missing query parameter %s (GET /diff?a=RUN&b=RUN)" k))
  in
  let a = param "a" and b = param "b" in
  let d = Db.diff db ~before:a ~after:b in
  Json.to_string
    (Json.Obj
       [
         ("before", Json.String a);
         ("after", Json.String b);
         ("newly_covered", json_of_string_list d.Counts.newly_covered);
         ("lost", json_of_string_list d.Counts.lost);
         ("only_before", json_of_string_list d.Counts.only_before);
         ("only_after", json_of_string_list d.Counts.only_after);
       ])
  ^ "\n"

let index_body =
  String.concat "\n"
    [
      "sic serve: simulator-independent coverage over HTTP";
      "";
      "  POST /runs?design=&backend=&workload=&seed=&cycles=&worker=   ingest one counts file (v1 text)";
      "  POST /heartbeat?worker=&job=&design=&backend=&cycles=&covered=   producer liveness ping";
      "  GET  /report        merged coverage (union-max over runs) as JSON";
      "  GET  /report.html   merged coverage as a self-contained HTML page";
      "  GET  /runs          every recorded run, as JSON";
      "  GET  /rank          greedy set-cover run ranking (text)";
      "  GET  /timelines     per-run convergence sparklines (text)";
      "  GET  /diff?a=&b=    coverage diff between two runs, as JSON";
      "  GET  /watch         live aggregate deltas as server-sent events";
      "  GET  /dashboard     self-contained live dashboard over /watch";
      "  GET  /metrics       request counters and per-endpoint latency, as JSON";
      "  GET  /metrics.prom  the same as Prometheus text exposition";
      "  GET  /healthz       liveness probe";
      "";
      "GET responses that read the database carry an ETag; send If-None-Match";
      "to get 304 while the database is unchanged.";
      "";
    ]

(* The live dashboard: one self-contained page (no external assets, same
   house style as Html_report) whose inline script subscribes to /watch
   and redraws the coverage curve, worker table and ingest sparkline on
   every event. *)
let dashboard_html =
  {dash|<!doctype html>
<meta charset="utf-8">
<title>sic live dashboard</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2em; background: #fafafa; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
.tiles { display: flex; gap: 1em; flex-wrap: wrap; }
.tile { background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: 0.8em 1.2em; }
.tile b { display: block; font-size: 1.4em; }
table { border-collapse: collapse; background: #fff; }
td, th { border: 1px solid #ddd; padding: 0.2em 0.6em; text-align: left; }
svg { background: #fff; border: 1px solid #ddd; }
#status { color: #555; }
td.stale { color: #b00; }
.dot { display: inline-block; width: 0.6em; height: 0.6em; border-radius: 50%; background: #2a2; }
.dot.off { background: #ccc; }
</style>
<h1>sic live dashboard</h1>
<p id="status">connecting to /watch &#8230;</p>
<div class="tiles">
  <div class="tile"><b id="t_cov">&#8211;</b>points covered</div>
  <div class="tile"><b id="t_runs">&#8211;</b>runs</div>
  <div class="tile"><b id="t_workers">&#8211;</b>active workers</div>
  <div class="tile"><b id="t_rate">&#8211;</b>runs/min</div>
</div>
<h2>total coverage</h2>
<svg id="curve" width="640" height="160" viewBox="0 0 640 160"></svg>
<h2>ingest rate (last 5 min, 5 s buckets)</h2>
<svg id="rate" width="640" height="60" viewBox="0 0 640 60"></svg>
<h2>workers</h2>
<table>
<thead><tr><th></th><th>worker</th><th>job</th><th>design</th><th>backend</th><th>cycles</th><th>covered</th><th>last seen</th></tr></thead>
<tbody id="workers"></tbody>
</table>
<script>
'use strict';
var curve = [];
var total = 0, covered = 0, runs = 0, failed = 0, workers = 0;
var ingests = [];
var workerRows = {};
function $(id) { return document.getElementById(id); }
function now() { return Date.now() / 1000; }
function fmt(n) { return n.toLocaleString(); }
function esc(s) { return String(s).replace(/&/g, '&amp;').replace(/</g, '&lt;'); }
function setTiles() {
  var pct = total > 0 ? (100 * covered / total).toFixed(1) + '%' : '';
  $('t_cov').textContent = fmt(covered) + '/' + fmt(total) + (pct ? ' (' + pct + ')' : '');
  $('t_runs').textContent = fmt(runs) + (failed > 0 ? ' (' + failed + ' failed)' : '');
  $('t_workers').textContent = workers;
  var cutoff = now() - 60;
  $('t_rate').textContent = ingests.filter(function (t) { return t >= cutoff; }).length;
}
function drawCurve() {
  var svg = $('curve'), w = 640, h = 160, pad = 4;
  if (curve.length === 0) { svg.innerHTML = ''; return; }
  var t0 = curve[0].t, t1 = curve[curve.length - 1].t;
  var span = Math.max(t1 - t0, 1);
  var max = Math.max(total, 1);
  var pts = curve.map(function (p) {
    var x = pad + (w - 2 * pad) * (p.t - t0) / span;
    var y = h - pad - (h - 2 * pad) * p.covered / max;
    return x.toFixed(1) + ',' + y.toFixed(1);
  }).join(' ');
  svg.innerHTML = '<polyline fill="none" stroke="#2a7" stroke-width="2" points="' + pts + '"/>';
}
function drawRate() {
  var svg = $('rate'), w = 640, h = 60, buckets = 60, bucketS = 5;
  var t = now(), counts = new Array(buckets).fill(0);
  ingests.forEach(function (ts) {
    var i = Math.floor((t - ts) / bucketS);
    if (i >= 0 && i < buckets) counts[buckets - 1 - i]++;
  });
  var max = Math.max.apply(null, counts.concat([1]));
  var bw = w / buckets, bars = '';
  counts.forEach(function (c, i) {
    var bh = (h - 2) * c / max;
    bars += '<rect x="' + (i * bw + 1).toFixed(1) + '" y="' + (h - bh).toFixed(1) +
      '" width="' + (bw - 2).toFixed(1) + '" height="' + bh.toFixed(1) + '" fill="#27a"/>';
  });
  svg.innerHTML = bars;
}
function drawWorkers() {
  var t = now(), rows = '';
  Object.keys(workerRows).sort().forEach(function (id) {
    var w = workerRows[id], age = t - w.last, stale = age > 10;
    rows += '<tr><td><span class="dot' + (stale ? ' off' : '') + '"></span></td><td>' + esc(id) +
      '</td><td>' + (w.job >= 0 ? w.job : '') + '</td><td>' + esc(w.design) +
      '</td><td>' + esc(w.backend) + '</td><td>' + fmt(w.cycles) +
      '</td><td>' + fmt(w.covered) +
      '</td><td' + (stale ? ' class="stale"' : '') + '>' + age.toFixed(0) + 's ago</td></tr>';
  });
  $('workers').innerHTML = rows;
}
function repaint() { setTiles(); drawCurve(); drawRate(); drawWorkers(); }
var es = new EventSource('/watch');
es.onopen = function () { $('status').textContent = 'live: streaming /watch'; };
es.onerror = function () { $('status').textContent = 'disconnected, retrying'; };
es.addEventListener('hello', function (e) {
  var d = JSON.parse(e.data);
  covered = d.covered; total = d.total; runs = d.runs; failed = d.failed; workers = d.workers;
  curve.push({ t: now(), covered: covered });
  repaint();
});
es.addEventListener('delta', function (e) {
  var d = JSON.parse(e.data);
  covered = d.covered; total = d.total; runs = d.runs; failed = d.failed; workers = d.workers;
  ingests.push(now());
  curve.push({ t: now(), covered: covered });
  if (d.worker) {
    var w = workerRows[d.worker] || { job: -1, design: '', backend: '', cycles: 0, covered: 0, last: 0 };
    w.design = d.design; w.backend = d.backend; w.last = now();
    workerRows[d.worker] = w;
  }
  repaint();
});
es.addEventListener('heartbeat', function (e) {
  var d = JSON.parse(e.data);
  workers = d.workers;
  workerRows[d.worker] = { job: d.job, design: d.design, backend: d.backend,
    cycles: d.cycles, covered: d.covered, last: now() };
  repaint();
});
setInterval(repaint, 1000);
</script>
|dash}

(** Serve a database-reading GET through the cache. The ETag is the
    manifest stamp, re-checked against the disk on {e every} request, so
    external writers ([sic db add], another campaign) invalidate us
    automatically; a hit serves bytes from memory without touching any
    counts file. *)
let cached t (req : Http.request) ~content_type (render : Db.t -> string) : reply =
  let etag = Printf.sprintf "\"m%d\"" (Db.manifest_stamp t.db) in
  let if_none_match =
    match Http.header req "if-none-match" with
    | Some v -> List.exists (fun e -> String.trim e = etag || String.trim e = "*")
                  (String.split_on_char ',' v)
    | None -> false
  in
  if if_none_match then { status = 304; content_type; extra = [ ("etag", etag) ]; body = "" }
  else
    let body =
      Mutex.protect t.db_m (fun () ->
          match Hashtbl.find_opt t.cache req.Http.target with
          | Some (e, ct, body) when e = etag && ct = content_type ->
              t.metrics.cache_hits <- t.metrics.cache_hits + 1;
              body
          | _ ->
              t.metrics.cache_misses <- t.metrics.cache_misses + 1;
              let db = Db.load t.db_dir in
              t.db <- db;
              let body = render db in
              Hashtbl.replace t.cache req.Http.target (etag, content_type, body);
              body)
    in
    { status = 200; content_type; extra = [ ("etag", etag) ]; body }

(** The [hello] event greeting a new /watch subscriber: where the
    database stands right now, so a dashboard renders before the first
    delta arrives. *)
let overview_json t : Json.t =
  let db =
    Mutex.protect t.db_m (fun () ->
        let db = Db.load t.db_dir in
        t.db <- db;
        db)
  in
  let union = Db.union_counts db in
  let all = Db.runs db in
  let ok = Db.ok_runs db in
  let units = List.fold_left (fun acc (r : Db.run) -> acc + r.Db.cycles) 0 ok in
  Json.Obj
    [
      ("runs", Json.Int (List.length all));
      ("ok", Json.Int (List.length ok));
      ("failed", Json.Int (List.length all - List.length ok));
      ("covered", Json.Int (Counts.covered_points union));
      ("total", Json.Int (Counts.total_points union));
      ("units", Json.Int units);
      ("stamp", Json.Int (Db.manifest_stamp db));
      ("workers", Json.Int (active_producers t));
      ("kinds", kinds_json union);
    ]

let post_run t (req : Http.request) : reply =
  let str k default = Option.value ~default (List.assoc_opt k req.Http.query) in
  let int k default =
    match List.assoc_opt k req.Http.query with
    | None -> default
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> n
        | None -> raise (Http.Bad_request (Printf.sprintf "query parameter %s is not an integer: %s" k s)))
  in
  let counts =
    try Counts.of_string req.Http.body
    with Counts.Bad_format m -> raise (Http.Bad_request ("bad counts payload: " ^ m))
  in
  let worker = str "worker" "" in
  let run, newly, agg, nruns, nok, units =
    Mutex.protect t.db_m (fun () ->
        Db.Lock.with_lock t.db_dir (fun () ->
            (* reload under the lock: another process may have appended
               runs since we last looked, and ids are assigned in order *)
            let db = Db.load t.db_dir in
            (* the aggregate *before* this run decides which of its >0
               points are news to the whole campaign *)
            let before = Db.aggregate db in
            let run =
              Db.add db ~design:(str "design" "unknown")
                ~backend:(str "backend" "external")
                ~workload:(str "workload" "external")
                ~seed:(int "seed" 0) ~cycles:(int "cycles" 0) (Ok counts)
            in
            t.db <- db;
            Hashtbl.reset t.cache;
            let newly =
              List.fold_left
                (fun acc (name, c) ->
                  if c > 0 && Counts.get before name = 0 then acc + 1 else acc)
                0 (Counts.to_sorted_list counts)
            in
            let ok = Db.ok_runs db in
            (* cumulative simulated units over every successful run, so a
               delta subscriber can render an absolute aggregate
               cycles/sec figure (waves x jobs x lanes) without replaying
               the stream *)
            let units = List.fold_left (fun acc (r : Db.run) -> acc + r.Db.cycles) 0 ok in
            ( run,
              newly,
              Db.aggregate db,
              List.length (Db.runs db),
              List.length ok,
              units )))
  in
  touch_producer t worker (fun w ->
      w.w_runs <- w.w_runs + 1;
      w.w_design <- run.Db.design;
      w.w_backend <- run.Db.backend);
  Mutex.protect t.metrics.mm (fun () -> t.metrics.ingested <- t.metrics.ingested + 1);
  publish t ~event:"delta"
    ~data:
      (Json.to_string
         (Json.Obj
            [
              ("run", Json.String run.Db.id);
              ("design", Json.String run.Db.design);
              ("backend", Json.String run.Db.backend);
              ("worker", Json.String worker);
              ("seed", Json.Int run.Db.seed);
              ("cycles", Json.Int run.Db.cycles);
              ("newly_covered", Json.Int newly);
              ("units", Json.Int units);
              ("covered", Json.Int (Counts.covered_points agg));
              ("total", Json.Int (Counts.total_points agg));
              ("runs", Json.Int nruns);
              ("ok", Json.Int nok);
              ("failed", Json.Int (nruns - nok));
              ("stamp", Json.Int (Db.manifest_stamp t.db));
              ("workers", Json.Int (active_producers t));
              ("kinds", kinds_json agg);
            ]));
  json 201 (Db.json_of_run run)

let post_heartbeat t (req : Http.request) : reply =
  let str k default = Option.value ~default (List.assoc_opt k req.Http.query) in
  let int k default =
    match List.assoc_opt k req.Http.query with
    | None -> default
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> n
        | None -> raise (Http.Bad_request (Printf.sprintf "query parameter %s is not an integer: %s" k s)))
  in
  let worker = str "worker" "" in
  if worker = "" then
    raise (Http.Bad_request "missing query parameter worker (POST /heartbeat?worker=ID)");
  let job = int "job" (-1) in
  let design = str "design" "" and backend = str "backend" "" in
  let cycles = int "cycles" 0 and covered = int "covered" 0 in
  touch_producer t worker (fun w ->
      w.w_job <- job;
      if design <> "" then w.w_design <- design;
      if backend <> "" then w.w_backend <- backend;
      w.w_cycles <- cycles;
      w.w_covered <- covered);
  publish t ~event:"heartbeat"
    ~data:
      (Json.to_string
         (Json.Obj
            [
              ("worker", Json.String worker);
              ("job", Json.Int job);
              ("design", Json.String design);
              ("backend", Json.String backend);
              ("cycles", Json.Int cycles);
              ("covered", Json.Int covered);
              ("workers", Json.Int (active_producers t));
            ]));
  json 200 (Json.Obj [ ("ok", Json.Bool true) ])

let metrics_json t : reply =
  let m = t.metrics in
  let subscribers = Mutex.protect t.hub.hm (fun () -> t.hub.subscribers) in
  let workers_active = active_producers t in
  Mutex.protect m.mm (fun () ->
      let table to_key tbl =
        Hashtbl.fold (fun k v acc -> (to_key k, Json.Int v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let summary h =
        Json.Obj
          [
            ("count", Json.Int (Obs.Histogram.count h));
            ("mean_us", Json.Float (Obs.Histogram.mean h));
            ("p50_us", Json.Float (Obs.Histogram.percentile h 50.));
            ("p90_us", Json.Float (Obs.Histogram.percentile h 90.));
            ("p99_us", Json.Float (Obs.Histogram.percentile h 99.));
            ("max_us", Json.Float (Obs.Histogram.max_value h));
          ]
      in
      let latency =
        Json.Obj
          (Hashtbl.fold (fun k h acc -> (k, summary h) :: acc) m.latency []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b))
      in
      json 200
        (Json.Obj
           [
             ("requests", Json.Obj (table Fun.id m.requests));
             ("statuses", Json.Obj (table string_of_int m.statuses));
             ("latency", latency);
             ("connections", Json.Int m.connections);
             ("ingested_runs", Json.Int m.ingested);
             ("epipe", Json.Int m.epipe);
             ("dropped_busy", Json.Int m.dropped_busy);
             ("cache_hits", Json.Int m.cache_hits);
             ("cache_misses", Json.Int m.cache_misses);
             ( "sse",
               Json.Obj
                 [
                   ("subscribers", Json.Int subscribers);
                   ("events", Json.Int m.sse_events);
                   ("dropped", Json.Int m.sse_dropped);
                 ] );
             ("workers_active", Json.Int workers_active);
             ("db_stamp", Json.Int (Db.manifest_stamp t.db));
           ]))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format 0.0.4)                            *)
(* ------------------------------------------------------------------ *)

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let metrics_prom t : reply =
  let subscribers = Mutex.protect t.hub.hm (fun () -> t.hub.subscribers) in
  let workers_active = active_producers t in
  let m = t.metrics in
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  Mutex.protect m.mm (fun () ->
      line "# HELP sic_requests_total HTTP requests served, by route.\n";
      line "# TYPE sic_requests_total counter\n";
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.requests []
      |> List.sort compare
      |> List.iter (fun (k, v) ->
             line "sic_requests_total{endpoint=\"%s\"} %d\n" (prom_escape k) v);
      line "# HELP sic_responses_total HTTP responses, by status code.\n";
      line "# TYPE sic_responses_total counter\n";
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.statuses []
      |> List.sort compare
      |> List.iter (fun (k, v) -> line "sic_responses_total{code=\"%d\"} %d\n" k v);
      line "# HELP sic_request_duration_microseconds Request wall time, by route.\n";
      line "# TYPE sic_request_duration_microseconds summary\n";
      Hashtbl.fold (fun k h acc -> (k, h) :: acc) m.latency []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (k, h) ->
             let e = prom_escape k in
             List.iter
               (fun (q, label) ->
                 line "sic_request_duration_microseconds{endpoint=\"%s\",quantile=\"%s\"} %.1f\n"
                   e label
                   (Obs.Histogram.percentile h q))
               [ (50., "0.5"); (90., "0.9"); (99., "0.99") ];
             line "sic_request_duration_microseconds_sum{endpoint=\"%s\"} %.1f\n" e
               (Obs.Histogram.mean h *. float_of_int (Obs.Histogram.count h));
             line "sic_request_duration_microseconds_count{endpoint=\"%s\"} %d\n" e
               (Obs.Histogram.count h));
      let counter name help v =
        line "# HELP %s %s\n" name help;
        line "# TYPE %s counter\n" name;
        line "%s %d\n" name v
      in
      let gauge name help v =
        line "# HELP %s %s\n" name help;
        line "# TYPE %s gauge\n" name;
        line "%s %d\n" name v
      in
      counter "sic_connections_total" "TCP connections accepted." m.connections;
      counter "sic_ingested_runs_total" "Runs accepted by POST /runs." m.ingested;
      counter "sic_epipe_total" "Peers that vanished mid-response." m.epipe;
      counter "sic_dropped_busy_total" "Connections refused with 503 (accept queue full)."
        m.dropped_busy;
      counter "sic_cache_hits_total" "Rendered-response cache hits." m.cache_hits;
      counter "sic_cache_misses_total" "Rendered-response cache misses." m.cache_misses;
      counter "sic_sse_events_total" "Events published to /watch subscribers." m.sse_events;
      counter "sic_sse_dropped_subscribers_total"
        "/watch subscribers that vanished mid-stream." m.sse_dropped;
      gauge "sic_sse_subscribers" "Currently connected /watch subscribers." subscribers;
      gauge "sic_workers_active" "Producers heard from within the liveness window."
        workers_active;
      gauge "sic_db_manifest_stamp" "Database manifest stamp (manifest size in bytes)."
        (Db.manifest_stamp t.db));
  {
    status = 200;
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    extra = [];
    body = Buffer.contents b;
  }

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* content negotiation for /metrics: Prometheus scrapers send
   Accept: text/plain (with a version parameter); everyone else gets
   the JSON. /metrics.prom forces the exposition format. *)
let wants_prom (req : Http.request) =
  match Http.header req "accept" with
  | Some a -> contains_sub a "text/plain"
  | None -> false

let handle t (req : Http.request) : reply =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" -> text 200 "ok\n"
  | "GET", "/" -> text 200 index_body
  | "GET", "/dashboard" ->
      {
        status = 200;
        content_type = "text/html; charset=utf-8";
        extra = [];
        body = dashboard_html;
      }
  | "GET", "/metrics" when wants_prom req -> metrics_prom t
  | "GET", "/metrics" -> metrics_json t
  | "GET", "/metrics.prom" -> metrics_prom t
  | "POST", "/heartbeat" -> post_heartbeat t req
  | "POST", "/runs" -> post_run t req
  | "GET", "/runs" -> cached t req ~content_type:"application/json" runs_json
  | "GET", "/report" -> cached t req ~content_type:"application/json" report_json
  | "GET", "/report.html" -> cached t req ~content_type:"text/html; charset=utf-8" report_html
  | "GET", "/rank" ->
      cached t req ~content_type:"text/plain; charset=utf-8" (fun db -> Db.render_rank db)
  | "GET", "/timelines" ->
      cached t req ~content_type:"text/plain; charset=utf-8" Db.render_timelines
  | "GET", "/diff" -> (
      try cached t req ~content_type:"application/json" (diff_json req)
      with Db.Db_error m -> text 404 (m ^ "\n"))
  | ("GET" | "POST"), path -> text 404 (Printf.sprintf "no such endpoint: %s\n" path)
  | meth, _ -> text 405 (Printf.sprintf "method %s not supported\n" meth)

(** [handle] plus the 4xx/5xx mapping: parser and payload errors are the
    client's fault, lock timeouts mean "retry later", anything else that
    escapes is a 500 — never a dead worker. A bad request body is turned
    into [Http.Bad_request] where it is parsed, so a format error that
    reaches here comes from a corrupt file on disk, and its message names
    the file and line. *)
let safe_handle t (req : Http.request) : reply =
  try handle t req with
  | Http.Bad_request m -> text 400 (m ^ "\n")
  | Http.Payload_too_large m -> text 413 (m ^ "\n")
  | Db.Db_error m when String.length m >= 9 && String.sub m 0 9 = "timed out" ->
      text 503 (m ^ "\n")
  | Db.Db_error m -> text 500 ("database error: " ^ m ^ "\n")
  | Sic_obs.Artifact.Bad_format m -> text 500 ("corrupt database file: " ^ m ^ "\n")
  | e -> text 500 ("internal error: " ^ Printexc.to_string e ^ "\n")

(* ------------------------------------------------------------------ *)
(* Connection handling                                                  *)
(* ------------------------------------------------------------------ *)

(* /metrics must not grow without bound when scanners probe random
   paths: count only the routes we actually serve and bucket everything
   else (404 noise) under "other" *)
let known_routes =
  [
    "GET /";
    "GET /healthz";
    "GET /dashboard";
    "GET /watch";
    "GET /metrics";
    "GET /metrics.prom";
    "GET /report";
    "GET /report.html";
    "GET /runs";
    "POST /runs";
    "POST /heartbeat";
    "GET /rank";
    "GET /timelines";
    "GET /diff";
  ]

let route_label (req : Http.request) =
  let key = req.Http.meth ^ " " ^ req.Http.path in
  if List.mem key known_routes then key else "other"

let record_request t (req : Http.request) ~status ~start_us =
  let dur_us = Obs.now_us () -. start_us in
  let m = t.metrics in
  Mutex.protect m.mm (fun () ->
      let key = route_label req in
      Hashtbl.replace m.requests key
        (1 + Option.value ~default:0 (Hashtbl.find_opt m.requests key));
      Hashtbl.replace m.statuses status
        (1 + Option.value ~default:0 (Hashtbl.find_opt m.statuses status));
      let h =
        match Hashtbl.find_opt m.latency key with
        | Some h -> h
        | None ->
            let h = Obs.Histogram.create () in
            Hashtbl.add m.latency key h;
            h
      in
      Obs.Histogram.add h dur_us);
  if Obs.on () then
    Mutex.protect obs_m (fun () ->
        Obs.record_span ~name:"serve.request" ~start_us ~dur_us
          [
            ("method", Obs.Str req.Http.meth);
            ("path", Obs.Str req.Http.path);
            ("status", Obs.Int status);
          ];
        Obs.count "serve.requests")

(* Wait until the connection has bytes to read. False = give up (peer
   idle too long, or the server is stopping), true = the reader either
   has buffered bytes or the socket is readable. *)
let wait_readable t fd (r : Http.Reader.t) : bool =
  let idle_limit = 10.0 in
  let waited = ref 0.0 in
  let result = ref None in
  while !result = None do
    if Http.Reader.buffered r > 0 then result := Some true
    else if t.stopping then result := Some false
    else if !waited >= idle_limit then result := Some false
    else begin
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> waited := !waited +. 0.25
      | _ :: _, _, _ -> result := Some true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Option.get !result

(* One /watch subscriber: a dedicated thread that owns the socket. The
   HTTP worker that parsed the request hands the fd over and returns to
   the pool immediately, so streaming clients never starve the fixed
   worker pool. The thread greets with a [hello] snapshot, then drains
   the hub — writing keep-alive comments across idle gaps — until the
   peer vanishes (EPIPE) or the hub closes (graceful drain). *)
let sse_loop t fd =
  let h = t.hub in
  let m = t.metrics in
  Mutex.protect h.hm (fun () -> h.subscribers <- h.subscribers + 1);
  let alive = ref true in
  let send s =
    try write_all fd s
    with Unix.Unix_error _ ->
      Mutex.protect m.mm (fun () -> m.sse_dropped <- m.sse_dropped + 1);
      alive := false
  in
  send
    "HTTP/1.1 200 OK\r\n\
     connection: close\r\n\
     content-type: text/event-stream\r\n\
     cache-control: no-cache\r\n\
     \r\n";
  if !alive then send (Sse.frame ~event:"hello" (Json.to_string (overview_json t)));
  let last_seq = ref (Mutex.protect h.hm (fun () -> h.seq)) in
  let last_write = ref (Unix.gettimeofday ()) in
  let hb_n = ref 0 in
  while !alive do
    let fresh, closed =
      Mutex.protect h.hm (fun () ->
          if h.seq = !last_seq && not h.hub_closed then Condition.wait h.hc h.hm;
          let fresh =
            List.filter (fun (e : sse_event) -> e.seq > !last_seq) h.backlog |> List.rev
          in
          List.iter (fun (e : sse_event) -> last_seq := max !last_seq e.seq) fresh;
          (fresh, h.hub_closed))
    in
    List.iter
      (fun e ->
        if !alive then begin
          send (Sse.frame ~event:e.ev_name e.ev_data);
          last_write := Unix.gettimeofday ()
        end)
      fresh;
    if closed then begin
      if !alive then send (Sse.comment "bye");
      alive := false
    end
    else if !alive && Unix.gettimeofday () -. !last_write >= t.sse_heartbeat_s then begin
      incr hb_n;
      send (Sse.heartbeat !hb_n);
      last_write := Unix.gettimeofday ()
    end
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.protect h.hm (fun () -> h.subscribers <- h.subscribers - 1)

(* Condition has no timed wait: a low-rate broadcast wakes idle
   subscriber threads so they can emit keep-alive heartbeats and notice
   shutdown promptly. Exits once the hub closes. *)
let ticker_loop t =
  let h = t.hub in
  let stop = ref false in
  while not !stop do
    Thread.delay 0.25;
    Mutex.protect h.hm (fun () ->
        if h.hub_closed then stop := true;
        Condition.broadcast h.hc)
  done

let serve_connection t fd : [ `Close | `Detached ] =
  t.metrics.connections <- t.metrics.connections + 1;
  let r = Http.Reader.of_fd fd in
  let closing = ref false in
  let detached = ref false in
  (* a worker must not hang forever on a half-sent request *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0 with Unix.Unix_error _ -> ());
  while not !closing do
    if not (wait_readable t fd r) then closing := true
    else begin
      let send s =
        try write_all fd s
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          t.metrics.epipe <- t.metrics.epipe + 1;
          closing := true
      in
      match Http.parse_request r with
      | None -> closing := true
      | exception Http.Bad_request m ->
          send (Http.response ~status:400 ~keep_alive:false (m ^ "\n"));
          closing := true
      | exception Http.Too_large m ->
          send (Http.response ~status:431 ~keep_alive:false (m ^ "\n"));
          closing := true
      | exception Http.Payload_too_large m ->
          send (Http.response ~status:413 ~keep_alive:false (m ^ "\n"));
          closing := true
      | exception Unix.Unix_error _ ->
          (* peer reset / receive timeout mid-request *)
          t.metrics.epipe <- t.metrics.epipe + 1;
          closing := true
      | Some req when req.Http.meth = "GET" && req.Http.path = "/watch" ->
          (* detach: the streaming thread owns the socket from here on *)
          let start_us = Obs.now_us () in
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.0 with Unix.Unix_error _ -> ());
          let th = Thread.create (fun () -> sse_loop t fd) () in
          Mutex.protect t.hub.hm (fun () ->
              t.hub.sse_threads <- th :: t.hub.sse_threads);
          record_request t req ~status:200 ~start_us;
          detached := true;
          closing := true
      | Some req ->
          let start_us = Obs.now_us () in
          let reply = safe_handle t req in
          let keep_alive =
            (not t.stopping)
            && (match Http.header req "connection" with
               | Some v -> String.lowercase_ascii v <> "close"
               | None -> req.Http.version = "HTTP/1.1")
          in
          send
            (Http.response ~status:reply.status ~content_type:reply.content_type
               ~extra:reply.extra ~keep_alive reply.body);
          record_request t req ~status:reply.status ~start_us;
          if not keep_alive then closing := true
    end
  done;
  if !detached then `Detached else `Close

(* ------------------------------------------------------------------ *)
(* The accept loop and the worker pool                                  *)
(* ------------------------------------------------------------------ *)

let worker t =
  let rec loop () =
    Mutex.lock t.qm;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qc t.qm
    done;
    let item = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    Mutex.unlock t.qm;
    match item with
    | None -> ()
    | Some fd ->
        (match serve_connection t fd with
        | `Detached -> () (* a /watch streaming thread owns the fd now *)
        | `Close -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | exception _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()));
        loop ()
  in
  loop ()

let accept_loop t =
  let rec loop () =
    match Unix.select [ t.listen_fd; t.stop_rd ] [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | readable, _, _ ->
        if List.mem t.stop_rd readable then () (* shutdown requested *)
        else begin
          (if List.mem t.listen_fd readable then
             match Unix.accept t.listen_fd with
             | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
             | fd, _ ->
                 Mutex.lock t.qm;
                 if Queue.length t.queue >= t.queue_limit then begin
                   Mutex.unlock t.qm;
                   t.metrics.dropped_busy <- t.metrics.dropped_busy + 1;
                   (try
                      write_all fd
                        (Http.response ~status:503 ~keep_alive:false "server busy\n")
                    with Unix.Unix_error _ -> ());
                   try Unix.close fd with Unix.Unix_error _ -> ()
                 end
                 else begin
                   Queue.add fd t.queue;
                   Condition.signal t.qc;
                   Mutex.unlock t.qm
                 end);
          loop ()
        end
  in
  loop ();
  (* wake every worker: drain what was already accepted, then exit *)
  Mutex.lock t.qm;
  t.stopping <- true;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> raise (Db.Db_error ("cannot resolve host " ^ host)))

let start ?(host = "127.0.0.1") ?(port = 0) ?(threads = 4) ?(queue_limit = 64)
    ?(sse_heartbeat_s = 15.0) ~db_dir () : t =
  ignore_sigpipe ();
  let db = Db.load db_dir in
  (* fails loudly on a non-database before any socket exists *)
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd (Unix.ADDR_INET (resolve host, port));
      Unix.listen listen_fd 128;
      let port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      let stop_rd, stop_wr = Unix.pipe () in
      Unix.set_nonblock stop_wr;
      {
        db_dir;
        host;
        port;
        listen_fd;
        stop_rd;
        stop_wr;
        queue = Queue.create ();
        queue_limit = max 1 queue_limit;
        qm = Mutex.create ();
        qc = Condition.create ();
        stopping = false;
        workers = [];
        acceptor = None;
        db_m = Mutex.create ();
        db;
        cache = Hashtbl.create 8;
        metrics =
          {
            mm = Mutex.create ();
            requests = Hashtbl.create 16;
            statuses = Hashtbl.create 8;
            latency = Hashtbl.create 16;
            connections = 0;
            ingested = 0;
            epipe = 0;
            dropped_busy = 0;
            cache_hits = 0;
            cache_misses = 0;
            sse_events = 0;
            sse_dropped = 0;
          };
        hub = hub_create ();
        producers = Hashtbl.create 8;
        sse_heartbeat_s = max 0.5 sse_heartbeat_s;
        ticker = None;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  t.workers <- List.init (max 1 threads) (fun _ -> Thread.create worker t);
  t.acceptor <- Some (Thread.create accept_loop t);
  t.ticker <- Some (Thread.create ticker_loop t);
  t

(** Async-signal-safe shutdown request: one byte down the self-pipe. The
    accept loop notices, stops accepting, and flips the pool into drain
    mode. Safe to call from a signal handler or any thread, repeatedly. *)
let request_stop t =
  try ignore (Unix.write t.stop_wr (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

let join_and_cleanup t =
  (match t.acceptor with Some th -> Thread.join th | None -> ());
  List.iter Thread.join t.workers;
  (* the workers are gone, so no new /watch subscriber can appear: close
     the hub and wait for every streaming thread to say goodbye *)
  hub_close t.hub;
  (match t.ticker with Some th -> Thread.join th | None -> ());
  List.iter Thread.join (Mutex.protect t.hub.hm (fun () -> t.hub.sse_threads));
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.listen_fd; t.stop_rd; t.stop_wr ]

let stop t =
  request_stop t;
  join_and_cleanup t

let run ?host ?port ?threads ?queue_limit ~db_dir () =
  let t = start ?host ?port ?threads ?queue_limit ~db_dir () in
  let on_signal _ = request_stop t in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  Printf.printf "sic serve: listening on http://%s:%d/ (db %s, %d threads)\n%!" t.host t.port
    db_dir (List.length t.workers);
  join_and_cleanup t;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  let m = t.metrics in
  Printf.printf "sic serve: %d connections, %d requests, %d runs ingested\n%!" m.connections
    (Hashtbl.fold (fun _ v acc -> acc + v) m.requests 0)
    m.ingested

(* ------------------------------------------------------------------ *)
(* The client                                                           *)
(* ------------------------------------------------------------------ *)

(** The matching HTTP client, over the same parser. One short-lived
    connection per {!call} (or an explicit keep-alive {!connect} /
    {!request} pair for hot paths); used by [sic campaign --push], the
    end-to-end tests, and the serve benchmark. *)
module Client = struct
  exception Error of string

  type response = {
    status : int;
    reason : string;
    headers : (string * string) list;
    body : string;
  }

  let header (r : response) name = List.assoc_opt (String.lowercase_ascii name) r.headers

  (** [parse_url "http://host:port/path?q"] -> (host, port, target). *)
  let parse_url url =
    let prefix = "http://" in
    let plen = String.length prefix in
    if String.length url < plen || String.sub url 0 plen <> prefix then
      raise (Error ("only http:// URLs are supported: " ^ url));
    let rest = String.sub url plen (String.length url - plen) in
    let hostport, target =
      match String.index_opt rest '/' with
      | None -> (rest, "/")
      | Some i -> (String.sub rest 0 i, String.sub rest i (String.length rest - i))
    in
    let host, port =
      match String.index_opt hostport ':' with
      | None -> (hostport, 80)
      | Some i -> (
          let h = String.sub hostport 0 i in
          let p = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt p with
          | Some p -> (h, p)
          | None -> raise (Error ("bad port in URL: " ^ url)))
    in
    if host = "" then raise (Error ("missing host in URL: " ^ url));
    (host, port, target)

  type conn = { fd : Unix.file_descr; rd : Http.Reader.t; chost : string; cport : int }

  let connect ~host ~port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
       Unix.connect fd (Unix.ADDR_INET (resolve host, port))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; rd = Http.Reader.of_fd fd; chost = host; cport = port }

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let read_response (c : conn) ~(meth : string) : response =
    match Http.read_line ~limit:Http.max_request_line c.rd with
    | None -> raise (Error "server closed the connection before responding")
    | Some line ->
        let status, reason =
          match String.split_on_char ' ' line with
          | version :: code :: rest
            when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
              match int_of_string_opt code with
              | Some s -> (s, String.concat " " rest)
              | None -> raise (Error ("bad status line: " ^ line)))
          | _ -> raise (Error ("bad status line: " ^ line))
        in
        let headers = Http.read_headers c.rd in
        let body =
          if status = 304 || status = 204 || meth = "HEAD" then ""
          else
            match List.assoc_opt "content-length" headers with
            | Some v -> (
                match int_of_string_opt (String.trim v) with
                | Some n -> Http.read_exact c.rd n
                | None -> raise (Error ("bad content-length: " ^ v)))
            | None ->
                (* identity framing: read until the server closes *)
                let b = Buffer.create 4096 in
                let rec go () =
                  match Http.Reader.byte c.rd with
                  | Some ch ->
                      Buffer.add_char b ch;
                      go ()
                  | None -> Buffer.contents b
                in
                go ()
        in
        { status; reason; headers; body }

  let request (c : conn) ?(headers = []) ?(body = "") ~meth ~target () : response =
    let b = Buffer.create (String.length body + 256) in
    Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
    Buffer.add_string b (Printf.sprintf "host: %s:%d\r\n" c.chost c.cport);
    List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) headers;
    if body <> "" || meth = "POST" || meth = "PUT" then
      Buffer.add_string b (Printf.sprintf "content-length: %d\r\n" (String.length body));
    Buffer.add_string b "\r\n";
    Buffer.add_string b body;
    write_all c.fd (Buffer.contents b);
    read_response c ~meth

  let call ?(headers = []) ?(body = "") ~meth url : response =
    let host, port, target = parse_url url in
    let c = connect ~host ~port in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () -> request c ~headers ~body ~meth ~target ())

  let get ?(headers = []) url = call ~headers ~meth:"GET" url
  let post ?(headers = []) ~body url = call ~headers ~body ~meth:"POST" url

  (** Push one run's counts to a server's [/runs] — what
      [sic campaign --push URL] does for every run the campaign added.
      [url] is the server root (e.g. [http://host:8080]); metadata
      travels as query parameters, the body is the counts v1 text.
      [worker] tags the run with a producer id for the live dashboard. *)
  let push_run ?(worker = "") ~url ~design ~backend ~workload ~seed ~cycles
      (counts : Counts.t) : response =
    let url = if String.length url > 0 && url.[String.length url - 1] = '/'
      then String.sub url 0 (String.length url - 1) else url in
    let target =
      Printf.sprintf "%s/runs?design=%s&backend=%s&workload=%s&seed=%d&cycles=%d%s" url
        (Http.percent_encode design) (Http.percent_encode backend)
        (Http.percent_encode workload) seed cycles
        (if worker = "" then "" else "&worker=" ^ Http.percent_encode worker)
    in
    post ~body:(Counts.to_string counts) target

  (** Subscribe to the server's [GET /watch] SSE stream and feed every
      decoded event to [on_event] until it returns [false] or the server
      closes the stream (its graceful drain). Keep-alive comments are
      consumed silently; [url] is the server root. *)
  let watch ~(on_event : event:string -> data:string -> bool) url : unit =
    let host, port, _ = parse_url url in
    let c = connect ~host ~port in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () ->
        write_all c.fd
          (Printf.sprintf
             "GET /watch HTTP/1.1\r\nhost: %s:%d\r\naccept: text/event-stream\r\n\r\n" host
             port);
        (match Http.read_line ~limit:Http.max_request_line c.rd with
        | None -> raise (Error "server closed the connection before responding")
        | Some line -> (
            match String.split_on_char ' ' line with
            | _ :: "200" :: _ -> ()
            | _ -> raise (Error ("watch: unexpected response: " ^ line))));
        let _headers = Http.read_headers c.rd in
        let d = Sse.Decoder.create () in
        let continue_ = ref true in
        while !continue_ do
          match Http.read_line c.rd with
          | None -> continue_ := false
          | Some line -> (
              match Sse.Decoder.line d line with
              | Some (event, data) -> if not (on_event ~event ~data) then continue_ := false
              | None -> ())
          | exception Http.Bad_request _ -> continue_ := false
          | exception Unix.Unix_error _ -> continue_ := false
        done)
end
