(** HTML report generation — the "interactive HTML reports" the paper
    names as the natural report-generator extension (§4, Table 1
    discussion). One self-contained page per run: summary tiles, a line
    coverage table with per-source-file annotated listings, and sections
    for whichever other metrics were collected. Still entirely
    simulator-independent: the input is the same metadata + counts map. *)

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|<style>
body { font-family: ui-monospace, monospace; margin: 2em; background: #fafafa; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
.tiles { display: flex; gap: 1em; flex-wrap: wrap; }
.tile { background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: 0.8em 1.2em; }
.tile b { display: block; font-size: 1.4em; }
table { border-collapse: collapse; background: #fff; }
td, th { border: 1px solid #ddd; padding: 0.2em 0.6em; text-align: left; }
tr.hit td { background: #e8f6e8; } tr.miss td { background: #fbe9e9; }
tr.excluded td { background: #f0f0f0; color: #888; text-decoration: line-through; }
.count { text-align: right; color: #555; }
.foot { color: #666; font-size: 0.9em; margin-top: 1.2em; }
pre { background: #fff; border: 1px solid #ddd; padding: 0.6em; }
</style>|}

(* Engine-profiler heat for one source line, as plain data: this module
   cannot depend on the simulator library, so callers (the CLI) convert
   their profile artifacts into this shape. *)
type line_heat = {
  heat_file : string;
  heat_line : int;
  heat_hits : int;  (** value-changing evaluations attributed to the line *)
  heat_time_ns : int;  (** sampled engine self-time; 0 when counts-only *)
}

let pct covered total =
  if total = 0 then 100.0 else 100.0 *. float_of_int covered /. float_of_int total

let tile label covered total =
  Printf.sprintf "<div class=\"tile\"><b>%.1f%%</b>%s (%d/%d)</div>" (pct covered total)
    (esc label) covered total

(* annotated source listing for one file; relative paths resolve against
   [source_root], so reports written from another directory (a coverage
   database, say) still find their sources *)
let source_section buf ~source_root ?(heat : line_heat list = []) file
    (lines : (int * int) list) =
  Buffer.add_string buf (Printf.sprintf "<h2>%s</h2>\n<table>\n" (esc file));
  (* per-line engine heat: normalize against the hottest line of the file
     so the tint reads as "share of this file's simulation cost". The
     profile and the report may name the same source through different
     prefixes (one recorded via a relative path, the other absolute), so
     accept a component-aligned suffix match either way round. *)
  let same_source a b =
    String.equal a b
    ||
    let suffix_of short long =
      let ls = String.length short and ll = String.length long in
      ls < ll
      && String.equal short (String.sub long (ll - ls) ls)
      && long.[ll - ls - 1] = '/'
    in
    suffix_of a b || suffix_of b a
  in
  let heat_of = Hashtbl.create 16 in
  List.iter
    (fun h -> if same_source h.heat_file file then Hashtbl.replace heat_of h.heat_line h)
    heat;
  let heat_max =
    Hashtbl.fold
      (fun _ h acc -> max acc (if h.heat_time_ns > 0 then h.heat_time_ns else h.heat_hits))
      heat_of 0
  in
  let with_heat = heat_max > 0 in
  Buffer.add_string buf
    (if with_heat then
       "<tr><th>line</th><th class=\"count\">count</th><th class=\"count\">heat</th><th>source</th></tr>\n"
     else "<tr><th>line</th><th class=\"count\">count</th><th>source</th></tr>\n");
  let path = if Filename.is_relative file then Filename.concat source_root file else file in
  let source =
    if Sys.file_exists path then
      Some (Array.of_list (String.split_on_char '\n' (Sic_obs.Artifact.load path Fun.id)))
    else None
  in
  List.iter
    (fun (line, count) ->
      let text =
        match source with
        | Some arr when line - 1 >= 0 && line - 1 < Array.length arr -> arr.(line - 1)
        | Some _ | None -> ""
      in
      if with_heat then begin
        let cell =
          match Hashtbl.find_opt heat_of line with
          | None -> "<td class=\"count\"></td>"
          | Some h ->
              let v = if h.heat_time_ns > 0 then h.heat_time_ns else h.heat_hits in
              let alpha = 0.85 *. float_of_int v /. float_of_int heat_max in
              let label =
                if h.heat_time_ns > 0 then Printf.sprintf "%dns" h.heat_time_ns
                else Printf.sprintf "%d&times;" h.heat_hits
              in
              Printf.sprintf
                "<td class=\"count\" style=\"background:rgba(255,140,0,%.2f)\" title=\"%d value changes\">%s</td>"
                alpha h.heat_hits label
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr class=\"%s\"><td>%d</td><td class=\"count\">%d</td>%s<td><code>%s</code></td></tr>\n"
             (if count > 0 then "hit" else "miss")
             line count cell (esc text))
      end
      else
        Buffer.add_string buf
          (Printf.sprintf "<tr class=\"%s\"><td>%d</td><td class=\"count\">%d</td><td><code>%s</code></td></tr>\n"
             (if count > 0 then "hit" else "miss")
             line count (esc text)))
    lines;
  Buffer.add_string buf "</table>\n"

let curve_colors = [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b" |]

(* coverage-vs-work curves as one self-contained inline SVG: no scripts,
   no external assets, printable — in keeping with the rest of the page *)
let timeline_section buf (timelines : (string * Timeline.t) list) =
  let w = 640. and h = 240. and pad = 36. in
  let max_at =
    float_of_int
      (List.fold_left (fun acc (_, tl) -> max acc (Timeline.last_at tl)) 1 timelines)
  in
  let max_cov =
    float_of_int
      (List.fold_left
         (fun acc (_, (tl : Timeline.t)) ->
           max acc
             (if tl.Timeline.total > 0 then tl.Timeline.total
              else Timeline.final_covered tl))
         1 timelines)
  in
  let x at = pad +. ((w -. (2. *. pad)) *. float_of_int at /. max_at) in
  let y c = h -. pad -. ((h -. (2. *. pad)) *. float_of_int c /. max_cov) in
  Buffer.add_string buf "<h2>coverage convergence</h2>\n";
  Buffer.add_string buf
    (Printf.sprintf
       "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" style=\"background:#fff;border:1px solid #ddd\">\n"
       w h w h);
  (* axes *)
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#999\"/>\n<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#999\"/>\n"
       pad (h -. pad) (w -. pad) (h -. pad) pad pad pad (h -. pad));
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" fill=\"#555\">0</text>\n\
        <text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" fill=\"#555\" text-anchor=\"end\">%.0f work</text>\n\
        <text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" fill=\"#555\">%.0f pts</text>\n"
       pad
       (h -. pad +. 12.)
       (w -. pad)
       (h -. pad +. 12.)
       max_at (4.) (pad -. 4.) max_cov);
  List.iteri
    (fun i (label, (tl : Timeline.t)) ->
      let color = curve_colors.(i mod Array.length curve_colors) in
      let points =
        String.concat " "
          (Printf.sprintf "%.1f,%.1f" (x 0) (y 0)
          :: List.map
               (fun (at, c) -> Printf.sprintf "%.1f,%.1f" (x at) (y c))
               tl.Timeline.samples)
      in
      Buffer.add_string buf
        (Printf.sprintf "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n"
           points color);
      Buffer.add_string buf
        (Printf.sprintf
           "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" fill=\"%s\">%s</text>\n"
           (pad +. 6.)
           (pad +. 12. +. (12. *. float_of_int i))
           color (esc label)))
    timelines;
  Buffer.add_string buf "</svg>\n"

(** Render one self-contained HTML page. Only the metrics whose metadata
    is passed appear. Relative source-file paths in the line-coverage
    listings are resolved against [source_root] (default: the process
    CWD), not wherever the report happens to be generated from.
    [timelines] adds a coverage-convergence chart (label -> curve, e.g.
    one per campaign run). [excluded] names points formally proven
    unreachable: they render greyed out in their own table rather than
    tinting as uncovered, are subtracted from the cover-point summary
    tile's denominator, and get an exclusion footnote. *)
let render ?(title = "SIC coverage report") ?(source_root = Filename.current_dir_name)
    ?(line : Line_coverage.db option)
    ?(toggle : Toggle_coverage.db option) ?(fsm : Fsm_coverage.db option)
    ?(rv : Ready_valid_coverage.db option) ?(timelines : (string * Timeline.t) list = [])
    ?(profile : line_heat list = []) ?(excluded : string list = []) (counts : Counts.t) :
    string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "<!doctype html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>%s</head><body>\n<h1>%s</h1>\n"
       (esc title) style (esc title));
  let is_excluded n = List.mem n excluded in
  (* summary tiles *)
  Buffer.add_string buf "<div class=\"tiles\">\n";
  (if excluded <> [] then
     let live = List.filter (fun n -> not (is_excluded n)) (Counts.names counts) in
     let cov = List.length (List.filter (fun n -> Counts.get counts n > 0) live) in
     Buffer.add_string buf (tile " cover points" cov (List.length live)));
  (match line with
  | Some db ->
      let r = Line_coverage.report db counts in
      Buffer.add_string buf
        (tile " branches" r.Line_coverage.branches_covered r.Line_coverage.branches_total);
      Buffer.add_string buf
        (tile " lines" r.Line_coverage.lines_covered r.Line_coverage.lines_total)
  | None -> ());
  (match toggle with
  | Some db ->
      let r = Toggle_coverage.report db counts in
      Buffer.add_string buf
        (tile " toggle bits" r.Toggle_coverage.bits_toggled r.Toggle_coverage.bits_total)
  | None -> ());
  (match fsm with
  | Some db ->
      let r = Fsm_coverage.report db counts in
      Buffer.add_string buf
        (tile " fsm states" r.Fsm_coverage.states_covered r.Fsm_coverage.states_total);
      Buffer.add_string buf
        (tile " fsm transitions" r.Fsm_coverage.transitions_covered
           r.Fsm_coverage.transitions_total)
  | None -> ());
  Buffer.add_string buf "</div>\n";
  if timelines <> [] then timeline_section buf timelines;
  (* line coverage: per-file listings *)
  (match line with
  | Some db ->
      let r = Line_coverage.report db counts in
      let files =
        List.sort_uniq String.compare (List.map (fun ((f, _), _) -> f) r.Line_coverage.per_line)
      in
      List.iter
        (fun file ->
          let lines =
            List.filter_map
              (fun ((f, l), c) -> if String.equal f file then Some (l, c) else None)
              r.Line_coverage.per_line
          in
          source_section buf ~source_root ~heat:profile file lines)
        files
  | None -> ());
  (* other metric details reuse the ASCII renderers inside <pre> *)
  (match toggle with
  | Some db ->
      Buffer.add_string buf
        (Printf.sprintf "<h2>toggle detail</h2><pre>%s</pre>\n"
           (esc (Toggle_coverage.render db counts)))
  | None -> ());
  (match fsm with
  | Some db ->
      Buffer.add_string buf
        (Printf.sprintf "<h2>fsm detail</h2><pre>%s</pre>\n" (esc (Fsm_coverage.render db counts)))
  | None -> ());
  (match rv with
  | Some db ->
      Buffer.add_string buf
        (Printf.sprintf "<h2>ready/valid detail</h2><pre>%s</pre>\n"
           (esc (Ready_valid_coverage.render db counts)))
  | None -> ());
  (* with exclusions in play, show the raw cover-point table so excluded
     points are visibly off the books instead of tinting as uncovered *)
  if excluded <> [] then begin
    Buffer.add_string buf "<h2>cover points</h2>\n<table>\n";
    Buffer.add_string buf
      "<tr><th>point</th><th class=\"count\">count</th><th>status</th></tr>\n";
    List.iter
      (fun n ->
        let c = Counts.get counts n in
        let cls, status =
          if is_excluded n then ("excluded", "excluded (proven unreachable)")
          else if c > 0 then ("hit", "covered")
          else ("miss", "uncovered")
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr class=\"%s\"><td><code>%s</code></td><td class=\"count\">%d</td><td>%s</td></tr>\n"
             cls (esc n) c status))
      (List.sort_uniq String.compare (Counts.names counts @ excluded));
    Buffer.add_string buf "</table>\n";
    Buffer.add_string buf
      (Printf.sprintf
         "<p class=\"foot\">%d point%s proven unreachable (bounded model check) %s excluded \
          from the coverage totals above.</p>\n"
         (List.length excluded)
         (if List.length excluded = 1 then "" else "s")
         (if List.length excluded = 1 then "is" else "are"))
  end;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let save path ?title ?source_root ?line ?toggle ?fsm ?rv ?timelines ?profile ?excluded
    counts =
  Sic_obs.Artifact.save path
    (render ?title ?source_root ?line ?toggle ?fsm ?rv ?timelines ?profile ?excluded counts)
