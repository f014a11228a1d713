(** The engine profiler's artifact: per-tape-instruction hit counts and
    sampled self-times, attributed back to the originating IR statement and
    its source location.

    One profile holds one or more {e designs} (a campaign merges profiles
    from many workers and possibly many designs into one artifact). Per
    design it records the tape shape — one {!row} per tape position, in
    tape order — so merging is positional: two profiles of the same design
    built from the same circuit have identical tapes, and merge is a
    pointwise sum of [hits] and [time_ns].

    [hits] counts {e value-changing} evaluations, not raw executions: the
    number is a property of the value stream, so it is identical across the
    plain and activity-mode schedulers and across engines (compiled vs
    the interpreter's counter) — which is what makes the artifact deterministic (same
    design/seed/cycles ⇒ byte-identical bytes regardless of [--activity]
    or [-j]) and lets a differential test catch a dirty-flag scheduler that
    silently skips work. [time_ns] is sampled (every Nth [run_tape]) and
    zero in counts-only profiles, e.g. everything produced by fleet
    workers.

    The text format follows the house counts-v1/.tl style: a versioned
    header rejected on version mismatch, [#] comments, then per design

    {v
    d <design> <runs> <cycles>
    <idx> <hits> <time_ns> <0|1:is_root> <op> <root> <file:line>
    v}

    where [root] is the defined name of the originating statement (unique
    in the flat low form; [Stmt.def_name]) and the location, which may
    contain spaces, is the rest of the line ([-] when unknown). *)

type row = {
  idx : int;  (** tape position *)
  hits : int;  (** value-changing evaluations *)
  time_ns : int;  (** sampled self-time; 0 in counts-only profiles *)
  is_root : bool;  (** produces the named statement's own value *)
  op : string;  (** instruction mnemonic *)
  root : string;  (** originating statement's defined name *)
  loc : string;  (** [file:line], or [-] when the info is unknown *)
}

type design_profile = {
  design : string;
  runs : int;  (** [run_tape] invocations folded into this profile *)
  cycles : int;
  rows : row array;  (** indexed by tape position *)
}

type t = design_profile list

module Artifact = Sic_obs.Artifact

exception Bad_format = Artifact.Bad_format

(* ------------------------------------------------------------------ *)
(* Text format                                                          *)
(* ------------------------------------------------------------------ *)

let header = "# sic profile v1"

let to_string (t : t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header ^ "\n");
  List.iter
    (fun d ->
      Buffer.add_string buf (Printf.sprintf "d %s %d %d\n" d.design d.runs d.cycles);
      Array.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %d %d %s %s %s\n" r.idx r.hits r.time_ns
               (if r.is_root then 1 else 0)
               r.op r.root r.loc))
        d.rows)
    (List.sort (fun a b -> String.compare a.design b.design) t);
  Buffer.contents buf

let of_string s : t =
  let designs = ref [] in
  let cur = ref None in
  let close () =
    match !cur with
    | None -> ()
    | Some (d, rows) ->
        designs := { d with rows = Array.of_list (List.rev rows) } :: !designs;
        cur := None
  in
  ignore
    (Artifact.lines ~header
       (fun lineno line ->
         match String.split_on_char ' ' line with
         | "d" :: rest -> (
             close ();
             match rest with
             | [ design; runs; cycles ] -> (
                 match (int_of_string_opt runs, int_of_string_opt cycles) with
                 | Some runs, Some cycles ->
                     cur := Some ({ design; runs; cycles; rows = [||] }, [])
                 | _ -> Artifact.bad_format lineno "bad design line %S" line)
             | _ -> Artifact.bad_format lineno "bad design line %S" line)
         | idx :: hits :: time_ns :: is_root :: op :: root :: loc_words -> (
             match
               ( int_of_string_opt idx,
                 int_of_string_opt hits,
                 int_of_string_opt time_ns,
                 is_root )
             with
             | Some idx, Some hits, Some time_ns, ("0" | "1") -> (
                 let r =
                   {
                     idx;
                     hits;
                     time_ns;
                     is_root = is_root = "1";
                     op;
                     root;
                     loc = (match loc_words with [] -> "-" | ws -> String.concat " " ws);
                   }
                 in
                 match !cur with
                 | Some (d, rows) -> cur := Some (d, r :: rows)
                 | None -> Artifact.bad_format lineno "instruction row before any 'd' line")
             | _ -> Artifact.bad_format lineno "bad instruction row %S" line)
         | _ -> Artifact.bad_format lineno "bad instruction row %S" line)
       s);
  close ();
  List.rev !designs

let save path (t : t) = Artifact.save path (to_string t)

let load path = Artifact.load path of_string

(* ------------------------------------------------------------------ *)
(* Merge                                                                *)
(* ------------------------------------------------------------------ *)

(** Positional pointwise sum per design. Two profiles of the same design
    must have the same tape shape (same instruction at every position) —
    guaranteed when they come from the same build of the same circuit;
    anything else raises {!Bad_format}. *)
let merge (ts : t list) : t =
  let out : (string, design_profile) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (List.iter (fun d ->
         match Hashtbl.find_opt out d.design with
         | None ->
             Hashtbl.replace out d.design { d with rows = Array.copy d.rows };
             order := d.design :: !order
         | Some prev ->
             if Array.length prev.rows <> Array.length d.rows then
               raise
                 (Bad_format
                    (Printf.sprintf "design %s: tape shape mismatch (%d vs %d instructions)"
                       d.design (Array.length prev.rows) (Array.length d.rows)));
             let rows =
               Array.map2
                 (fun (a : row) (b : row) ->
                   if a.idx <> b.idx || a.op <> b.op || a.root <> b.root then
                     raise
                       (Bad_format
                          (Printf.sprintf "design %s: instruction %d mismatch (%s %s vs %s %s)"
                             d.design a.idx a.op a.root b.op b.root));
                   { a with hits = a.hits + b.hits; time_ns = a.time_ns + b.time_ns })
                 prev.rows d.rows
             in
             Hashtbl.replace out d.design
               {
                 prev with
                 runs = prev.runs + d.runs;
                 cycles = prev.cycles + d.cycles;
                 rows;
               }))
    ts;
  List.rev_map (Hashtbl.find out) !order

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)
(* ------------------------------------------------------------------ *)

type stmt_agg = {
  s_root : string;
  s_loc : string;
  s_hits : int;  (** the root instruction's hits — how often the statement's value changed *)
  s_time_ns : int;  (** self-time summed over all instructions of the statement *)
  s_instrs : int;
}

type line_agg = {
  l_loc : string;
  l_hits : int;
  l_time_ns : int;
  l_roots : string list;  (** statements on this line, hottest first *)
}

(* sort hottest first: by sampled time when any, else by hits; name-stable *)
let hotter (ta, ha, na) (tb, hb, nb) =
  if ta <> tb then compare tb ta else if ha <> hb then compare hb ha else String.compare na nb

let by_statement (d : design_profile) : stmt_agg list =
  let tbl : (string, stmt_agg) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun (r : row) ->
      match Hashtbl.find_opt tbl r.root with
      | None ->
          order := r.root :: !order;
          Hashtbl.replace tbl r.root
            {
              s_root = r.root;
              s_loc = r.loc;
              s_hits = (if r.is_root then r.hits else 0);
              s_time_ns = r.time_ns;
              s_instrs = 1;
            }
      | Some a ->
          Hashtbl.replace tbl r.root
            {
              a with
              s_hits = (if r.is_root then a.s_hits + r.hits else a.s_hits);
              s_time_ns = a.s_time_ns + r.time_ns;
              s_instrs = a.s_instrs + 1;
            })
    d.rows;
  List.rev_map (Hashtbl.find tbl) !order
  |> List.sort (fun a b -> hotter (a.s_time_ns, a.s_hits, a.s_root) (b.s_time_ns, b.s_hits, b.s_root))

let by_line (d : design_profile) : line_agg list =
  let stmts = by_statement d in
  let tbl : (string, line_agg) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (s : stmt_agg) ->
      match Hashtbl.find_opt tbl s.s_loc with
      | None ->
          order := s.s_loc :: !order;
          Hashtbl.replace tbl s.s_loc
            {
              l_loc = s.s_loc;
              l_hits = s.s_hits;
              l_time_ns = s.s_time_ns;
              l_roots = [ s.s_root ];
            }
      | Some a ->
          Hashtbl.replace tbl s.s_loc
            {
              a with
              l_hits = a.l_hits + s.s_hits;
              l_time_ns = a.l_time_ns + s.s_time_ns;
              l_roots = s.s_root :: a.l_roots;
            })
    stmts;
  List.rev_map (Hashtbl.find tbl) !order
  |> List.map (fun a -> { a with l_roots = List.rev a.l_roots })
  |> List.sort (fun a b -> hotter (a.l_time_ns, a.l_hits, a.l_loc) (b.l_time_ns, b.l_hits, b.l_loc))

let sampled (d : design_profile) = Array.exists (fun r -> r.time_ns > 0) d.rows

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let si n =
  if n >= 10_000_000 then Printf.sprintf "%dM" (n / 1_000_000)
  else if n >= 10_000 then Printf.sprintf "%dk" (n / 1_000)
  else string_of_int n

(** The [sic hotspots] ranked tables: per source line, then per statement. *)
let render ?(top = 20) (t : t) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (d : design_profile) ->
      let timed = sampled d in
      Buffer.add_string buf
        (Printf.sprintf "design %s: %d instructions, %d runs, %d cycles%s\n" d.design
           (Array.length d.rows) d.runs d.cycles
           (if timed then "" else " (counts only)"));
      let take n l = List.filteri (fun i _ -> i < n) l in
      Buffer.add_string buf
        (Printf.sprintf "\n  hottest source lines (top %d)\n  %4s  %10s  %10s  %s\n" top "rank"
           "self-time" "hits" "location / statements");
      List.iteri
        (fun i (l : line_agg) ->
          let roots =
            match l.l_roots with
            | [] -> ""
            | r :: rest ->
                r ^ (if rest = [] then "" else Printf.sprintf " (+%d)" (List.length rest))
          in
          Buffer.add_string buf
            (Printf.sprintf "  %4d  %9sns  %10s  %s  %s\n" (i + 1) (si l.l_time_ns)
               (si l.l_hits) l.l_loc roots))
        (take top (by_line d));
      Buffer.add_string buf
        (Printf.sprintf "\n  hottest statements (top %d)\n  %4s  %10s  %10s  %6s  %s\n" top
           "rank" "self-time" "hits" "instrs" "statement @ location");
      List.iteri
        (fun i (s : stmt_agg) ->
          Buffer.add_string buf
            (Printf.sprintf "  %4d  %9sns  %10s  %6d  %s @ %s\n" (i + 1) (si s.s_time_ns)
               (si s.s_hits) s.s_instrs s.s_root s.s_loc))
        (take top (by_statement d));
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

(** Collapsed-stack output for flamegraph tooling: one
    [design;file:line;statement;op <value>] line per tape instruction,
    where the value is sampled self-time when the profile has timings and
    hit count otherwise. *)
let folded (t : t) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (d : design_profile) ->
      let timed = sampled d in
      Array.iter
        (fun (r : row) ->
          let v = if timed then r.time_ns else r.hits in
          if v > 0 then
            Buffer.add_string buf
              (Printf.sprintf "%s;%s;%s;%s %d\n" d.design r.loc r.root r.op v))
        d.rows)
    t;
  Buffer.contents buf
