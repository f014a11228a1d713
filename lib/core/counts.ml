(** The simulator-independent coverage interface (§3).

    Every backend reports coverage as a map from the cover statement's name
    (including its instance path) to a non-negative, saturating count. This
    module is that map, its on-disk interchange format, and the merge
    operation the paper gets "by construction" (§5.3): since all backends
    emit the same format, merging is a pointwise saturating sum. *)

type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 64

let get (t : t) name = Option.value ~default:0 (Hashtbl.find_opt t name)

let set (t : t) name v = Hashtbl.replace t name v

(** Saturating addition — mirrors the saturating hardware counters. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let add (t : t) name v = Hashtbl.replace t name (sat_add (get t name) v)

let incr (t : t) name = add t name 1

let names (t : t) = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let to_sorted_list (t : t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let of_list l =
  let t = create () in
  List.iter (fun (k, v) -> add t k v) l;
  t

let total_points (t : t) = Hashtbl.length t

let covered_points ?(threshold = 1) (t : t) =
  Hashtbl.fold (fun _ v acc -> if v >= threshold then acc + 1 else acc) t 0

(** Names covered at least [threshold] times — the §5.3 removal set. *)
let covered ?(threshold = 1) (t : t) =
  Hashtbl.fold (fun k v acc -> if v >= threshold then k :: acc else acc) t []
  |> List.sort String.compare

(** Pointwise saturating merge. Missing keys count as zero, so results from
    backends that saw different instrumentation subsets merge cleanly. *)
let merge (ts : t list) : t =
  let out = create () in
  List.iter (fun t -> Hashtbl.iter (fun k v -> add out k v) t) ts;
  out

let merge_into (acc : t) (t : t) = Hashtbl.iter (fun k v -> add acc k v) t

(** Pointwise maximum. Unlike {!merge} this is idempotent, so it is the
    right combinator when the same run's counts may be delivered more than
    once (worker retries, at-least-once collection in [Sic_fleet]). *)
let union_max (ts : t list) : t =
  let out = create () in
  List.iter
    (fun t ->
      Hashtbl.iter (fun k v -> if (not (Hashtbl.mem out k)) || v > get out k then set out k v) t)
    ts;
  out

let equal (a : t) (b : t) = to_sorted_list a = to_sorted_list b

type diff = {
  newly_covered : string list;  (** zero (or absent) before, nonzero after *)
  lost : string list;  (** nonzero before, zero after *)
  only_before : string list;  (** points absent from the new run *)
  only_after : string list;
}

(** Compare two runs' coverage (e.g. before/after a test-suite change, or
    software vs FPGA contribution in the §5.3 flow). *)
let diff ~(before : t) ~(after : t) : diff =
  let keys =
    List.sort_uniq String.compare (names before @ names after)
  in
  let mem t k = Hashtbl.mem t k in
  {
    newly_covered =
      List.filter (fun k -> get before k = 0 && get after k > 0) keys;
    lost = List.filter (fun k -> get before k > 0 && get after k = 0 && mem after k) keys;
    only_before = List.filter (fun k -> mem before k && not (mem after k)) keys;
    only_after = List.filter (fun k -> mem after k && not (mem before k)) keys;
  }

let render_diff (d : diff) : string =
  let buf = Buffer.create 256 in
  let section title items =
    if items <> [] then begin
      Buffer.add_string buf (Printf.sprintf "%s (%d):\n" title (List.length items));
      List.iter (fun k -> Buffer.add_string buf ("  " ^ k ^ "\n")) items
    end
  in
  section "newly covered" d.newly_covered;
  section "lost coverage" d.lost;
  section "points only in the first run" d.only_before;
  section "points only in the second run" d.only_after;
  if Buffer.length buf = 0 then "no coverage changes\n" else Buffer.contents buf

(** {1 Interchange format}

    One line per cover point: [<count> <name>]. Lines starting with [#]
    are comments. This is the format the report generators consume,
    independent of which simulator produced it. *)

(* The only header this implementation understands; any other "# sic
   coverage counts vN" line is rejected (see {!Artifact.lines}).
   A file with no header at all still loads. *)
let header = "# sic coverage counts v1"

module Artifact = Sic_obs.Artifact

exception Bad_format = Artifact.Bad_format

let of_string s =
  let t = create () in
  ignore
    (Artifact.lines ~header
       (fun lineno line ->
         match String.index_opt line ' ' with
         | None -> Artifact.bad_format lineno "expected '<count> <name>', got %S" line
         | Some i -> (
             match int_of_string_opt (String.sub line 0 i) with
             | Some c when c >= 0 -> add t (String.sub line (i + 1) (String.length line - i - 1)) c
             | Some _ | None -> Artifact.bad_format lineno "bad count in %S" line))
       s);
  t

let to_string (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ^ "\n");
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '\n')
    (to_sorted_list t);
  Buffer.contents buf

let save path (t : t) = Artifact.save path (to_string t)

let load path = Artifact.load path of_string
