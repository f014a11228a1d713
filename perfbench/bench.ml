(** What every workload shares: the clock, scratch directories, repeated
    set-up, fixed-size rounds, and the result a workload hands back. *)

let now = Trace.now

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** The process's resident-set high-water mark (Linux [VmHWM]), in MB.
    Forked fleet workers have their own and are not included. A system
    without [/proc/self/status] fails the run rather than report another
    quantity under the same name. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "peak_rss_mb: no VmHWM line in /proc/self/status"
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** {1 Set-up and rounds}

    Set-up costs milliseconds, so one measurement of it cannot repeat
    within a tenth; every workload sets up many times and reports the
    median of the faster half ({!Stats.quiet_median}). Each phase is
    timed too, for the per-layer view.

    A round is a fixed amount of work, the same every round of a run, so
    round times compare directly. The set-ups are spread between the
    rounds rather than run in one burst: the contention that slows a
    shared machine comes in stretches of seconds, and spreading the
    set-ups over the run lets the quiet stretches show in both. *)

let phase_samples : (string, float list) Hashtbl.t = Hashtbl.create 16

(** Time one set-up phase. *)
let phase name f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  Hashtbl.replace phase_samples name
    (dt :: Option.value ~default:[] (Hashtbl.find_opt phase_samples name));
  v

(** Median seconds of a set-up phase over the repetitions; 0 when the
    workload has no such phase. *)
let phase_median name =
  match Hashtbl.find_opt phase_samples name with
  | None | Some [] -> 0.
  | Some l -> Stats.median (Array.of_list l)

(** Before each round, [setups_per_round] timed set-ups; the round runs
    on the last one, every other is [release]d at once, and the last after
    the round. Rounds repeat [count] times, or else until [seconds] have
    passed (at least two). Returns every set-up's seconds and the rounds'
    results. *)
let rounds ~seconds ?count ~setups_per_round ?(release = ignore) ~(setup : int -> 's)
    (round : 's -> int -> 'r) : float array * 'r list =
  let times = ref [] and n = ref 0 in
  let rep () =
    let t0 = now () in
    let v = setup !n in
    times := (now () -. t0) :: !times;
    incr n;
    v
  in
  let t_end = now () +. seconds in
  let more i = match count with Some c -> i < c | None -> i < 2 || now () < t_end in
  let rec go i acc =
    if not (more i) then List.rev acc
    else begin
      let s = ref (rep ()) in
      for _ = 2 to setups_per_round do
        release !s;
        s := rep ()
      done;
      let r = round !s i in
      release !s;
      go (i + 1) (r :: acc)
    end
  in
  let rs = go 0 [] in
  (Array.of_list (List.rev !times), rs)

(** In a traced run, rounds alternate: odd rounds are traced, even ones
    are not, and the difference of their medians is the tracing
    overhead. *)
let traced_round ~trace i = trace && i mod 2 = 1

let trace_overhead ~(traced : float list) ~(untraced : float list) =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.
  | _ ->
      (Stats.median (Array.of_list traced) /. Stats.median (Array.of_list untraced)) -. 1.

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(** {1 Fleet jobs}

    Fleet workers are forked processes; the parent sees each job only
    through [on_event]. A job's span runs from [Job_started] (just after
    the fork) to [Job_finished] (after its result was read and
    decoded). *)

type job_span = {
  job : Sic_fleet.Fleet.job;
  j0 : float;
  j1 : float;
  outcome : (Sic_fleet.Fleet.job_result, string) result;
}

(** An [on_event] hook and the job spans it has seen, in finishing
    order. *)
let job_recorder () =
  let module Fleet = Sic_fleet.Fleet in
  let started = Hashtbl.create 8 and finished = ref [] in
  let on_event = function
    | Fleet.Job_started { job; _ } -> Hashtbl.replace started job.Fleet.index (now ())
    | Fleet.Job_finished { job; result } ->
        finished :=
          { job; j0 = Hashtbl.find started job.Fleet.index; j1 = now (); outcome = result }
          :: !finished
    | Fleet.Job_heartbeat _ | Fleet.Job_retried _ -> ()
  in
  (on_event, fun () -> List.rev !finished)

(** Lay measured durations end to end from [t0] as attributed children of
    [parent]: the layers of a job that ran in a forked worker, timed by
    re-executing it in-process. A re-execution can run slower than the
    worker did; what would spill past the parent's end is cut off, so the
    layers never account for more time than the parent really took. *)
let attribute (parent : Trace.span) t0 parts =
  ignore
    (List.fold_left
       (fun t (name, dt) ->
         let t1 = Float.min (t +. dt) parent.Trace.t1 in
         if t1 > t then ignore (Trace.record ~attributed:true ~parent ~t0:t ~t1 name);
         t1)
       t0 parts)

(** The root span of the round just traced. *)
let last_round () =
  List.find (fun (s : Trace.span) -> s.Trace.name = "round" && s.Trace.parent < 0) !Trace.recorded

(** {1 Results} *)

(** One human-readable row: name, unit, value, sample count ([0] for a
    value that is not a sample statistic). *)
type row = { r_name : string; r_unit : string; r_value : float; r_samples : int }

let row ?(samples = 0) r_name r_unit r_value = { r_name; r_unit; r_value; r_samples = samples }

(** A percentile row in milliseconds from samples in seconds, or nothing
    when the ten-beyond rule forbids it. *)
let pct_row name (samples_s : float array) p =
  match Stats.percentile samples_s p with
  | Some v -> [ row ~samples:(Array.length samples_s) name "ms" (v *. 1e3) ]
  | None -> []

type gate = { g_name : string; g_ok : bool; g_detail : string }

let gate g_name g_ok g_detail = { g_name; g_ok; g_detail }

type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** the gated end-to-end metrics *)
  report : row list;  (** every end-to-end number, printed for people *)
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  shares : (string * float) list * float;
      (** self seconds per layer over the traced rounds, and their total *)
  gates : gate list;
}

(** Per-operation latencies (seconds) must be numerous enough to give a
    median under the ten-beyond rule; anything less is a failed run, not
    a number. *)
let op_p50_ms (ops : float array) : float =
  match Stats.percentile ops 50. with
  | Some v -> v *. 1e3
  | None ->
      failwith
        (Printf.sprintf "only %d operations measured; the median needs %d" (Array.length ops)
           (2 * Stats.min_beyond))

let median_ms samples = Stats.median samples *. 1e3

(** A per-layer percentile in milliseconds, or 0 when the ten-beyond rule
    forbids it. *)
let pct_ms samples p = match Stats.percentile samples p with Some v -> v *. 1e3 | None -> 0.
