(** Structured telemetry recorder + exporters (see obs.mli). *)

type value = Bool of bool | Int of int | Float of float | Str of string

type event =
  | Span of {
      name : string;
      start_us : float;
      dur_us : float;
      depth : int;
      args : (string * value) list;
    }
  | Gauge of { name : string; ts_us : float; gauge_value : float }
  | Instant of { name : string; ts_us : float; args : (string * value) list }

type lane = { lane_pid : int; lane_label : string; lane_events : event list }

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

let enabled = ref false
let on () = !enabled

let clock : (unit -> float) ref = ref Unix.gettimeofday
let set_clock f = clock := f
let now_us () = !clock () *. 1e6

external now_ns : unit -> int = "sic_obs_monotonic_ns" [@@noalloc]

let t0_us = ref 0.
let depth = ref 0
let recorded : event list ref = ref [] (* newest first *)
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 16

(* telemetry imported from other processes, one lane each, newest first *)
let imported : lane list ref = ref []
let lanes () = List.rev !imported

(* timestamp relative to [enable] *)
let ts () = now_us () -. !t0_us

let record e = recorded := e :: !recorded
let events () = List.rev !recorded

let enable () =
  t0_us := now_us ();
  enabled := true

let disable () = enabled := false

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  type t = { mutable values : float array; mutable len : int }

  let create () = { values = Array.make 64 0.; len = 0 }

  let add h v =
    if h.len = Array.length h.values then begin
      let bigger = Array.make (2 * h.len) 0. in
      Array.blit h.values 0 bigger 0 h.len;
      h.values <- bigger
    end;
    h.values.(h.len) <- v;
    h.len <- h.len + 1

  let count h = h.len

  let fold f init h =
    let acc = ref init in
    for i = 0 to h.len - 1 do
      acc := f !acc h.values.(i)
    done;
    !acc

  let mean h = if h.len = 0 then nan else fold ( +. ) 0. h /. float_of_int h.len
  let min_value h = if h.len = 0 then nan else fold Float.min infinity h
  let max_value h = if h.len = 0 then nan else fold Float.max neg_infinity h

  (* nearest-rank percentile over a sorted copy; exact for our scales *)
  let percentile h q =
    if h.len = 0 then nan
    else begin
      let sorted = Array.sub h.values 0 h.len in
      Array.sort Float.compare sorted;
      let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int h.len)) - 1 in
      sorted.(max 0 (min (h.len - 1) rank))
    end
end

let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.replace histograms name h;
      h

let reset () =
  recorded := [];
  imported := [];
  depth := 0;
  Hashtbl.reset counters;
  Hashtbl.reset histograms

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

type span_ctx = { ctx_start_us : float; ctx_depth : int; live : bool }

let span_open () =
  if not !enabled then { ctx_start_us = 0.; ctx_depth = 0; live = false }
  else begin
    let c = { ctx_start_us = ts (); ctx_depth = !depth; live = true } in
    depth := !depth + 1;
    c
  end

let span_close (c : span_ctx) ~name args =
  if c.live then begin
    depth := c.ctx_depth;
    record
      (Span
         {
           name;
           start_us = c.ctx_start_us;
           dur_us = ts () -. c.ctx_start_us;
           depth = c.ctx_depth;
           args;
         })
  end

let span ?(args = []) name f =
  if not !enabled then f ()
  else begin
    let c = span_open () in
    match f () with
    | v ->
        span_close c ~name args;
        v
    | exception e ->
        span_close c ~name (("error", Bool true) :: args);
        raise e
  end

let record_span ~name ~start_us ~dur_us args =
  if !enabled then
    record (Span { name; start_us = start_us -. !t0_us; dur_us; depth = !depth; args })

(* ------------------------------------------------------------------ *)
(* Counters, gauges, instants                                           *)
(* ------------------------------------------------------------------ *)

let count ?(by = 1) name =
  if !enabled then
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace counters name (ref by)

let counter_value name =
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0

let gauge name v = if !enabled then record (Gauge { name; ts_us = ts (); gauge_value = v })

let instant ?(args = []) name =
  if !enabled then record (Instant { name; ts_us = ts (); args })

(* ------------------------------------------------------------------ *)
(* The runtime text sink                                                *)
(* ------------------------------------------------------------------ *)

let sink : (string -> unit) ref = ref print_string

let with_sink s f =
  let saved = !sink in
  sink := s;
  Fun.protect ~finally:(fun () -> sink := saved) f

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

let json_of_value (v : value) : Json.t =
  match v with
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s

let json_of_args args = Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args)

let json_of_event (e : event) : Json.t =
  match e with
  | Span { name; start_us; dur_us; depth; args } ->
      Json.Obj
        [
          ("type", Json.String "span");
          ("name", Json.String name);
          ("start_us", Json.Float start_us);
          ("dur_us", Json.Float dur_us);
          ("depth", Json.Int depth);
          ("args", json_of_args args);
        ]
  | Gauge { name; ts_us; gauge_value } ->
      Json.Obj
        [
          ("type", Json.String "gauge");
          ("name", Json.String name);
          ("ts_us", Json.Float ts_us);
          ("value", Json.Float gauge_value);
        ]
  | Instant { name; ts_us; args } ->
      Json.Obj
        [
          ("type", Json.String "instant");
          ("name", Json.String name);
          ("ts_us", Json.Float ts_us);
          ("args", json_of_args args);
        ]

(* ------------------------------------------------------------------ *)
(* Cross-process round-trip                                             *)
(* ------------------------------------------------------------------ *)

(* A fleet worker is a fork of this binary, so what it ships back is this
   typed value, marshaled with the rest of its job's result: no text
   format, nothing to parse. *)

type export = {
  ex_pid : int;
  ex_t0_us : float;
  ex_events : event list;
  ex_counters : (string * int) list;
}

let export () =
  {
    ex_pid = Unix.getpid ();
    ex_t0_us = !t0_us;
    ex_events = events ();
    ex_counters = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counters [];
  }

let rebase offset (e : event) : event =
  match e with
  | Span s -> Span { s with start_us = s.start_us +. offset }
  | Gauge g -> Gauge { g with ts_us = g.ts_us +. offset }
  | Instant i -> Instant { i with ts_us = i.ts_us +. offset }

let import ?label (x : export) =
  (* counters are absorbed unguarded: an explicit import is intent enough *)
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt counters name with
      | Some r -> r := !r + v
      | None -> Hashtbl.replace counters name (ref v))
    x.ex_counters;
  (* the exporter's timestamps are relative to its own t0; shift them
     onto ours so one merged trace shows the true schedule *)
  let offset = x.ex_t0_us -. !t0_us in
  let label = match label with Some l -> l | None -> Printf.sprintf "pid %d" x.ex_pid in
  imported :=
    {
      lane_pid = x.ex_pid;
      lane_label = label;
      lane_events = List.map (rebase offset) x.ex_events;
    }
    :: !imported

let summary_lines () =
  let counter_lines =
    Hashtbl.fold
      (fun name r acc ->
        Json.Obj
          [ ("type", Json.String "counter"); ("name", Json.String name); ("value", Json.Int !r) ]
        :: acc)
      counters []
  in
  let histogram_lines =
    Hashtbl.fold
      (fun name h acc ->
        Json.Obj
          [
            ("type", Json.String "histogram");
            ("name", Json.String name);
            ("count", Json.Int (Histogram.count h));
            ("min", Json.Float (Histogram.min_value h));
            ("max", Json.Float (Histogram.max_value h));
            ("mean", Json.Float (Histogram.mean h));
            ("p50", Json.Float (Histogram.percentile h 50.));
            ("p90", Json.Float (Histogram.percentile h 90.));
            ("p99", Json.Float (Histogram.percentile h 99.));
          ]
        :: acc)
      histograms []
  in
  (* hashtable order is arbitrary; sort by name for stable output *)
  let by_name a b =
    match (Json.member "name" a, Json.member "name" b) with
    | Some (Json.String x), Some (Json.String y) -> String.compare x y
    | _ -> 0
  in
  List.sort by_name counter_lines @ List.sort by_name histogram_lines

let ndjson_buffer buf =
  let line j =
    Json.to_buffer buf j;
    Buffer.add_char buf '\n'
  in
  line
    (Artifact.meta ~format:"sic-telemetry" ~version:1
       [ ("unit", Json.String "us"); ("pid", Json.Int (Unix.getpid ())) ]);
  List.iter (fun e -> line (json_of_event e)) (events ());
  List.iter line (summary_lines ());
  (* imported worker lanes, each announced by a lane record; lane events
     carry the worker's pid so offline consumers can keep them apart *)
  List.iter
    (fun l ->
      line
        (Json.Obj
           [
             ("type", Json.String "lane");
             ("pid", Json.Int l.lane_pid);
             ("label", Json.String l.lane_label);
           ]);
      List.iter
        (fun e ->
          match json_of_event e with
          | Json.Obj kvs -> line (Json.Obj (kvs @ [ ("pid", Json.Int l.lane_pid) ]))
          | j -> line j)
        l.lane_events)
    (lanes ())

let ndjson_string () =
  let buf = Buffer.create 4096 in
  ndjson_buffer buf;
  Buffer.contents buf

let chrome_trace_json ?pid ?tid () : Json.t =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  let tid = match tid with Some t -> t | None -> pid in
  let common ~pid ~tid name ph ts =
    [
      ("name", Json.String name);
      ("cat", Json.String "sic");
      ("ph", Json.String ph);
      ("ts", Json.Float ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
    ]
  in
  let event_json ~pid ~tid (e : event) =
    match e with
    | Span { name; start_us; dur_us; args; _ } ->
        Json.Obj
          (common ~pid ~tid name "X" start_us
          @ [ ("dur", Json.Float dur_us); ("args", json_of_args args) ])
    | Gauge { name; ts_us; gauge_value } ->
        Json.Obj
          (common ~pid ~tid name "C" ts_us
          @ [ ("args", Json.Obj [ ("value", Json.Float gauge_value) ]) ])
    | Instant { name; ts_us; args } ->
        Json.Obj
          (common ~pid ~tid name "i" ts_us @ [ ("s", Json.String "g"); ("args", json_of_args args) ])
  in
  (* "M" metadata names each lane in Perfetto's track list *)
  let thread_name ~pid ~tid label =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String label) ]);
      ]
  in
  let local_lane =
    thread_name ~pid ~tid "main" :: List.map (event_json ~pid ~tid) (events ())
  in
  (* one named track per process: a process can ship several lanes (a
     pooled fleet worker ships one per job), and a track keeps only one
     name, so a pid with several lanes is named for the pid *)
  let lanes = lanes () in
  let track_names =
    List.map
      (fun pid ->
        let label =
          match List.filter (fun l -> l.lane_pid = pid) lanes with
          | [ l ] -> l.lane_label
          | _ -> Printf.sprintf "pid %d" pid
        in
        thread_name ~pid ~tid:pid label)
      (List.sort_uniq compare (List.map (fun l -> l.lane_pid) lanes))
  in
  let imported_events =
    List.concat_map
      (fun l -> List.map (event_json ~pid:l.lane_pid ~tid:l.lane_pid) l.lane_events)
      lanes
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List (local_lane @ track_names @ imported_events));
    ]

let chrome_trace_string ?pid ?tid () = Json.to_string (chrome_trace_json ?pid ?tid ())

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

type span_stat = {
  stat_name : string;
  calls : int;
  total_us : float;
  mean_us : float;
  min_us : float;
  max_us : float;
}

let span_stats () =
  let order = ref [] in
  let acc : (string, int * float * float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : event) ->
      match e with
      | Span { name; dur_us; _ } -> (
          match Hashtbl.find_opt acc name with
          | None ->
              order := name :: !order;
              Hashtbl.replace acc name (1, dur_us, dur_us, dur_us)
          | Some (n, total, mn, mx) ->
              Hashtbl.replace acc name
                (n + 1, total +. dur_us, Float.min mn dur_us, Float.max mx dur_us))
      | Gauge _ | Instant _ -> ())
    (events ());
  List.rev_map
    (fun name ->
      let n, total, mn, mx = Hashtbl.find acc name in
      {
        stat_name = name;
        calls = n;
        total_us = total;
        mean_us = total /. float_of_int n;
        min_us = mn;
        max_us = mx;
      })
    !order

(* ------------------------------------------------------------------ *)
(* Pretty-printing NDJSON lines ([sic tail])                            *)
(* ------------------------------------------------------------------ *)

let pp_value (j : Json.t) = match j with Json.String s -> s | j -> Json.to_string j

let pp_args j =
  match Json.member "args" j with
  | Some (Json.Obj ((_ :: _) as kvs)) ->
      " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ pp_value v) kvs)
  | _ -> ""

let pp_ndjson_line (line : string) : string =
  match Json.parse line with
  | exception Json.Parse_error _ -> line
  | j -> (
      let str k = Json.string_member k j in
      let int_ k = Option.value ~default:0 (Json.int_member k j) in
      let flt k = Option.value ~default:0. (Json.float_member k j) in
      let name = Option.value ~default:"?" (str "name") in
      let stamp ts_us = Printf.sprintf "[%10.3f ms]" (ts_us /. 1000.) in
      let pid_suffix =
        match Json.int_member "pid" j with
        | Some p -> Printf.sprintf "  (pid %d)" p
        | None -> ""
      in
      match str "type" with
      | Some "meta" ->
          Printf.sprintf "# sic telemetry (unit %s%s)"
            (Option.value ~default:"?" (str "unit"))
            (match Json.int_member "pid" j with
            | Some p -> Printf.sprintf ", pid %d" p
            | None -> "")
      | Some "span" ->
          Printf.sprintf "%s span     %s%s (%.3f ms)%s%s"
            (stamp (flt "start_us"))
            (String.make (2 * int_ "depth") ' ')
            name
            (flt "dur_us" /. 1000.)
            (pp_args j) pid_suffix
      | Some "gauge" ->
          Printf.sprintf "%s gauge    %s = %g%s" (stamp (flt "ts_us")) name (flt "value")
            pid_suffix
      | Some "instant" ->
          Printf.sprintf "%s instant  %s%s%s" (stamp (flt "ts_us")) name (pp_args j) pid_suffix
      | Some "counter" -> Printf.sprintf "(counter)     %s = %d" name (int_ "value")
      | Some "histogram" ->
          Printf.sprintf "(histogram)   %s n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f" name
            (int_ "count") (flt "mean") (flt "p50") (flt "p90") (flt "p99")
      | Some "hb" ->
          Printf.sprintf "(heartbeat)   job %d: %d done, %d covered" (int_ "job")
            (int_ "cycles") (int_ "covered")
      | Some "lane" ->
          Printf.sprintf "--- lane pid %d: %s ---" (int_ "pid")
            (Option.value ~default:"?" (str "label"))
      | _ -> line)

let render_span_table () =
  let stats = span_stats () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-32s %6s %12s %12s %12s %12s\n" "span" "calls" "total ms" "mean ms"
       "min ms" "max ms");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-32s %6d %12.3f %12.3f %12.3f %12.3f\n" s.stat_name s.calls
           (s.total_us /. 1000.) (s.mean_us /. 1000.) (s.min_us /. 1000.)
           (s.max_us /. 1000.)))
    stats;
  Buffer.contents buf
