(** Coverage-convergence timelines.

    The paper's evaluation is a convergence study: coverage per unit of
    work, across backends. A timeline is the minimal record of that curve
    for one run — [(at, covered)] samples, where [at] is the run's own
    budget unit (simulated cycles, fuzz executions, scan periods) and
    [covered] is the number of cover points hit at least once by then —
    plus the total number of points, so curves from differently sized
    instrumentations still render as percentages.

    Like {!Counts}, timelines have a versioned line-oriented text format so
    the coverage database can persist one per run and any v1 reader can
    consume files written by any producer. *)

type t = {
  total : int;  (** instrumented cover points (0 when unknown) *)
  samples : (int * int) list;  (** (at, covered), strictly increasing [at] *)
}

let empty = { total = 0; samples = [] }

let final_covered t =
  match List.rev t.samples with (_, c) :: _ -> c | [] -> 0

let last_at t = match List.rev t.samples with (a, _) :: _ -> a | [] -> 0

(** The earliest [at] whose coverage reaches [frac] of the final coverage —
    "where the curve flattens". [None] for empty or all-zero timelines. *)
let saturation_at ?(frac = 0.99) t =
  let final = final_covered t in
  if final <= 0 then None
  else
    let target = int_of_float (Float.ceil (frac *. float_of_int final)) in
    Option.map fst (List.find_opt (fun (_, c) -> c >= target) t.samples)

(* ------------------------------------------------------------------ *)
(* Building                                                             *)
(* ------------------------------------------------------------------ *)

type builder = { mutable rev_samples : (int * int) list }

let builder () = { rev_samples = [] }

(** Append a sample. A repeated [at] replaces the previous sample (the
    final partial-chunk sample may land on an exact sampling boundary);
    an [at] that goes backwards is rejected — timelines are monotonic in
    work by construction. *)
let record b ~at ~covered =
  match b.rev_samples with
  | (a, _) :: rest when a = at -> b.rev_samples <- (at, covered) :: rest
  | (a, _) :: _ when a > at ->
      invalid_arg (Printf.sprintf "Timeline.record: at %d after %d" at a)
  | _ -> b.rev_samples <- (at, covered) :: b.rev_samples

let build ?(total = 0) b = { total; samples = List.rev b.rev_samples }

(* ------------------------------------------------------------------ *)
(* Interchange format                                                   *)
(* ------------------------------------------------------------------ *)

(* The header is required (see {!Sic_obs.Artifact.lines} for the
   versioning rule). *)
let header = "# sic coverage timeline v1"

module Artifact = Sic_obs.Artifact

exception Bad_format = Artifact.Bad_format

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf (Printf.sprintf "total %d\n" t.total);
  List.iter (fun (at, c) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" at c)) t.samples;
  Buffer.contents buf

let of_string s =
  let total = ref 0 in
  let rev_samples = ref [] in
  let saw_header =
    Artifact.lines ~header
      (fun lineno line ->
        match String.split_on_char ' ' line with
        | [ "total"; n ] -> (
            match int_of_string_opt n with
            | Some v when v >= 0 -> total := v
            | Some _ | None -> Artifact.bad_format lineno "bad total in %S" line)
        | [ at; covered ] -> (
            match (int_of_string_opt at, int_of_string_opt covered) with
            | Some a, Some c when a >= 0 && c >= 0 -> (
                match !rev_samples with
                | (prev, _) :: _ when prev >= a ->
                    Artifact.bad_format lineno "sample at %d is not after %d" a prev
                | _ -> rev_samples := (a, c) :: !rev_samples)
            | _ -> Artifact.bad_format lineno "expected '<at> <covered>', got %S" line)
        | _ -> Artifact.bad_format lineno "expected '<at> <covered>', got %S" line)
      s
  in
  if not saw_header then Artifact.bad_format 1 "missing %S header" header;
  { total = !total; samples = List.rev !rev_samples }

let save path t = Artifact.save path (to_string t)

let load path = Artifact.load path of_string

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let spark_levels = " .:-=+*#@"

(** A fixed-width ASCII curve: each column is the coverage level (relative
    to [total], or to the final coverage when [total] is 0) at that
    fraction of the run. Deterministic, so renderings can be diffed. *)
let sparkline ?(width = 32) t =
  let scale = if t.total > 0 then t.total else max 1 (final_covered t) in
  let span = max 1 (last_at t) in
  let buf = Bytes.make width ' ' in
  let covered_by at =
    List.fold_left (fun acc (a, c) -> if a <= at then c else acc) 0 t.samples
  in
  for col = 0 to width - 1 do
    let at = (col + 1) * span / width in
    let c = covered_by at in
    let level = c * (String.length spark_levels - 1) / scale in
    Bytes.set buf col spark_levels.[max 0 (min (String.length spark_levels - 1) level)]
  done;
  Bytes.to_string buf
