(** In-memory spans for the traced run.

    A span has a name, a start, an end and the span that caused it (its
    parent). Spans are recorded only around calls the benchmark itself
    makes into the library's public functions; nothing inside [lib/] is
    instrumented. Two kinds of time are not plain nested spans:

    - {e charged} time: calls too frequent to record one by one (a
      backend's [step] and [poke], once per simulated cycle) are summed
      per enclosing span and per layer, and count as covered time of that
      span;
    - {e attributed} spans: a layer that runs inside a forked fleet worker
      cannot be wrapped, so the benchmark re-executes the same job
      in-process, measures each layer there, and lays spans of those
      durations inside the worker's job span. Their durations are
      measured; their positions inside the job are not, and the export
      marks them.

    Self time is a span's duration minus the part of it that its children
    and its charged calls cover. *)

let now () = float_of_int (Sic_obs.Obs.now_ns ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  track : int;  (** Chrome-trace thread: 1 main, 3.. connections *)
  t0 : float;
  mutable t1 : float;
  attributed : bool;
  mutable charged : (string * float) list;  (** layer -> seconds *)
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []

let spans () = List.rev !recorded

let make ?(attributed = false) ~track ~parent ~t0 ~t1 name =
  let s = { id = !next_id; name; parent; track; t0; t1; attributed; charged = [] } in
  incr next_id;
  recorded := s :: !recorded;
  s

(** Add a finished span with explicit times (rebuilt from events or
    request records, or attributed); a root without [parent]. *)
let record ?attributed ?(track = 1) ?parent ~t0 ~t1 name : span =
  let parent = match parent with Some p -> p.id | None -> -1 in
  make ?attributed ~track ~parent ~t0 ~t1 name

(** Open a span as a child of the innermost open one. *)
let start name : span =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s = make ~track:1 ~parent ~t0:(now ()) ~t1:nan name in
  stack := s :: !stack;
  s

let finish (s : span) =
  s.t1 <- now ();
  stack := List.filter (fun o -> o.id <> s.id) !stack

(** [with_span name f]: [f ()] inside a span when tracing is on, plain
    [f ()] otherwise. *)
let with_span name f =
  if not !on then f ()
  else begin
    let s = start name in
    match f () with
    | v ->
        finish s;
        v
    | exception e ->
        finish s;
        raise e
  end

(** Charge [dt] seconds of [layer] work to span [s]. *)
let charge (s : span) layer dt =
  let prev = Option.value ~default:0. (List.assoc_opt layer s.charged) in
  s.charged <- (layer, prev +. dt) :: List.remove_assoc layer s.charged

let duration s = s.t1 -. s.t0

(** Total length of the union of [intervals] clipped to [lo, hi]:
    overlapping children (two connections, two workers) are counted
    once. *)
let covered ~lo ~hi (intervals : (float * float) list) : float =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** Self time of every span, by id. Never negative: clock granularity can
    make children and charged calls sum past their parent by a few ns. *)
let self_times (all : span list) : (int, float) Hashtbl.t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    all;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let charged = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. s.charged in
      let v = duration s -. covered ~lo:s.t0 ~hi:s.t1 kids -. charged in
      Hashtbl.replace self s.id (Float.max 0. v))
    all;
  self

(** The root ancestor of each span, by id. *)
let roots (all : span list) : (int, span) Hashtbl.t =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let memo = Hashtbl.create 64 in
  let rec root s =
    match Hashtbl.find_opt memo s.id with
    | Some r -> r
    | None ->
        let r =
          if s.parent < 0 then s
          else match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s
        in
        Hashtbl.replace memo s.id r;
        r
  in
  List.iter (fun s -> ignore (root s)) all;
  memo

(** Self seconds per layer over the spans under roots named [root]
    (charged time goes to its own layer), and the summed duration of
    those roots — the denominator of every share. [layer_of] maps a span
    name to the layer its self time belongs to. *)
let layer_totals ~root ~(layer_of : string -> string) (all : span list) :
    (string * float) list * float =
  let self = self_times all in
  let rootmap = roots all in
  let totals = Hashtbl.create 16 in
  let add layer dt =
    Hashtbl.replace totals layer (dt +. Option.value ~default:0. (Hashtbl.find_opt totals layer))
  in
  let denom = ref 0. in
  List.iter
    (fun s ->
      let r = Hashtbl.find rootmap s.id in
      if r.name = root then begin
        if s.id = r.id then denom := !denom +. duration s;
        add (layer_of s.name) (Hashtbl.find self s.id);
        List.iter (fun (layer, dt) -> add layer dt) s.charged
      end)
    all;
  (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []), !denom)

(** Durations of the spans named [name] under roots named [root]. *)
let durations ~root name (all : span list) : float array =
  let rootmap = roots all in
  Array.of_list
    (List.filter_map
       (fun s ->
         if s.name = name && (Hashtbl.find rootmap s.id).name = root then Some (duration s)
         else None)
       all)

(** Chrome trace-event JSON (the format Perfetto and about://tracing
    open): one complete ("X") event per span in microseconds from the
    first span, on the span's track, with its self time, charged layers
    and the attributed flag as arguments. *)
let to_chrome_json ~(track_names : (int * string) list) (all : span list) : string =
  let module J = Sic_obs.Json in
  let self = self_times all in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let us t = J.Float (Float.round ((t -. origin) *. 1e7) /. 10.) in
  let meta =
    List.map
      (fun (tid, name) ->
        J.Obj
          [
            ("name", J.String "thread_name");
            ("ph", J.String "M");
            ("pid", J.Int 1);
            ("tid", J.Int tid);
            ("args", J.Obj [ ("name", J.String name) ]);
          ])
      track_names
  in
  let events =
    List.map
      (fun s ->
        let args =
          [ ("self_us", J.Float (Float.round (Hashtbl.find self s.id *. 1e7) /. 10.)) ]
          @ (if s.attributed then [ ("attributed", J.Bool true) ] else [])
          @ List.map (fun (l, dt) -> (l ^ "_us", J.Float (Float.round (dt *. 1e7) /. 10.))) s.charged
        in
        J.Obj
          [
            ("name", J.String s.name);
            ("cat", J.String (List.hd (String.split_on_char '.' s.name)));
            ("ph", J.String "X");
            ("ts", us s.t0);
            ("dur", J.Float (Float.round (duration s *. 1e7) /. 10.));
            ("pid", J.Int 1);
            ("tid", J.Int s.track);
            ("args", J.Obj args);
          ])
      all
  in
  J.to_string (J.Obj [ ("displayTimeUnit", J.String "ms"); ("traceEvents", J.List (meta @ events)) ])
