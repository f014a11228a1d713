(** The campaign orchestrator: many workloads x seeds x backends, in
    parallel, into one coverage database.

    The paper's common counts format makes every backend's result
    mergeable (§5.3); this module supplies the missing operational half:
    run a deterministic job list on a pool of [-j N] forked workers (one
    pool per {!run_jobs} call; each worker runs job after job as the
    parent dispatches them, so fork and copy-on-write are paid per worker
    rather than per job), collect each job's counts over a pipe, survive
    crashes and timeouts (a dead worker fails only its own job, recorded
    as a {e failed run}, and is replaced; the campaign never dies), and
    between {e waves} fold everything into the database and strip
    already-covered points from the next, more expensive instrumentation
    — the §5.3 removal loop generalized from "software then FPGA" to an
    arbitrary cost ladder (simulators, then fuzzing, then modelled FPGA,
    then BMC).

    Determinism: each job's RNG seed derives from the campaign master
    seed and the job's global index ({!Sic_fuzz.Rng.split}), never from
    scheduling; a job carries no state out of its worker (it builds its
    own engines and starts from reset telemetry), so which worker runs
    it, and after which jobs, changes nothing; results are committed to
    the database in job order at each wave barrier; and the aggregate is
    a commutative, associative merge — so the database contents are
    byte-for-byte identical at any [-j]. *)

module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Timeline = Sic_coverage.Timeline
module Removal = Sic_coverage.Removal
module Db = Sic_db.Db
module Obs = Sic_obs.Obs
module Rng = Sic_fuzz.Rng
open Sic_sim

(* ------------------------------------------------------------------ *)
(* Jobs                                                                 *)
(* ------------------------------------------------------------------ *)

type backend = Interp | Compiled | Essent | Fpga | Fuzz | Bmc | Bmc_witness | Lanes

let backend_name = function
  | Interp -> "interp"
  | Compiled -> "compiled"
  | Essent -> "essent"
  | Fpga -> "fpga"
  | Fuzz -> "fuzz"
  | Bmc -> "bmc"
  | Bmc_witness -> "bmc-witness"
  | Lanes -> "lanes"

let all_backends = [ Interp; Compiled; Essent; Lanes; Fpga; Fuzz; Bmc; Bmc_witness ]

let backend_of_string s = List.find_opt (fun b -> backend_name b = s) all_backends

(** What a backend runs as a workload, for the run record. *)
let workload_name = function
  | Interp | Compiled | Essent | Fpga | Lanes -> "random"
  | Fuzz -> "fuzz"
  | Bmc | Bmc_witness -> "bmc"

type job = {
  index : int;  (** global position in the campaign's job list *)
  design : string;
  circuit : Sic_ir.Circuit.t;  (** instrumented, lowered, removal applied *)
  circuit_hash : string;
  backend : backend;
  seed : int;  (** derived deterministically from (master seed, run index) *)
  lane_seeds : int array;
      (** the additional runs a [Lanes] job advances bit-parallel to the
          [seed] run (lanes 1..): each entry is a full run with its own
          stimulus stream and its own database record. [[||]] for every
          other backend. Seeds derive from the campaign's global {e run}
          counter, not the job counter, so packing runs into lane jobs
          never changes which seeds exist *)
  budget : int;  (** cycles (sims/FPGA), execs (fuzz) or bound (BMC) *)
  wave : int;
  scan_width : int;  (** FPGA counter width *)
  sample_every : int;  (** timeline sampling period in budget units; 0 = off *)
  profile : bool;
      (** ship an engine hotspot profile with the result; honoured by the
          compiled-engine simulation backends ([Compiled], [Essent]) and
          ignored by the rest *)
  covers : string list;
      (** restrict the BMC backends to these cover points; [[]] = all.
          The closure loop dispatches one single-point job per uncovered
          point this way. Other backends ignore it *)
  corpus : bytes list;
      (** extra initial fuzz seeds (witness-derived inputs); inherited by
          the forked worker through the job list, so nothing crosses
          the pipe. [[]] for every backend but [Fuzz] *)
}

type job_result = {
  counts : Counts.t;
  lane_extra : Counts.t list;
      (** a [Lanes] job's per-lane counts beyond lane 0 (which is
          [counts]), in lane order — one future database record each.
          [[]] for every other backend *)
  sim_cycles : int;  (** total simulated budget units: [budget x lanes] *)
  wall_us : float;
  timeline : Timeline.t option;  (** recorded when [sample_every > 0] *)
  prof : Profile.design_profile option;
      (** counts-only engine profile, when [job.profile] asked for one *)
  witnesses : (string * Replay.trace) list;
      (** a [Bmc_witness] job's replay-confirmed witness traces, one per
          reachable targeted cover; [[]] for every other backend *)
}

(** Execute one job in the current process. Pure function of the job
    (every source of randomness is seeded from [job.seed]); [progress]
    fires at every [sample_every] boundary — the worker's heartbeat hook,
    deliberately outside the determinism contract. *)
let run_job ?progress (job : job) : job_result =
  let t0 = Unix.gettimeofday () in
  let finish ?timeline ?prof ?(lane_extra = []) ?(witnesses = []) ~sim_cycles counts =
    {
      counts;
      lane_extra;
      sim_cycles;
      wall_us = (Unix.gettimeofday () -. t0) *. 1e6;
      timeline;
      prof;
      witnesses;
    }
  in
  let notify ~cycles ~covered =
    match progress with Some f -> f ~cycles ~covered | None -> ()
  in
  let rng = Rng.create job.seed in
  match job.backend with
  | Interp | Compiled | Essent ->
      (* under [job.profile] the compiled-engine backends build in
         counts-only profiling mode and keep the sim handle to read the
         profile back; counts-only because fleet profiles must merge
         byte-deterministically across workers, which sampled timings by
         design do not *)
      let profiled = ref None in
      let b =
        match job.backend with
        | Interp -> Interp.create job.circuit
        | (Compiled | Essent) when job.profile ->
            let sim = Compiled.build ~profile:Compiled.Counts_only job.circuit in
            profiled := Some sim;
            Compiled.to_backend ~name:(backend_name job.backend) sim
        | Essent -> Essent.create job.circuit
        | _ -> Compiled.create job.circuit
      in
      let tlb = Timeline.builder () in
      let b =
        Backend.with_sampler ~every:job.sample_every
          (fun ~cycles ~covered ->
            Timeline.record tlb ~at:cycles ~covered;
            notify ~cycles ~covered)
          b
      in
      Backend.reset_sequence b;
      Backend.random_stimulus ~bits:(Rng.bits30 rng) ~cycles:job.budget b;
      let counts = b.Backend.counts () in
      let timeline =
        if job.sample_every <= 0 then None
        else begin
          Timeline.record tlb ~at:(b.Backend.cycles ())
            ~covered:(Counts.covered_points counts);
          Some (Timeline.build ~total:(Counts.total_points counts) tlb)
        end
      in
      let prof = Option.bind !profiled Compiled.profile in
      finish ?timeline ?prof ~sim_cycles:(b.Backend.cycles ()) counts
  | Fpga ->
      let chained, chain = Sic_firesim.Scan_chain.insert ~width:job.scan_width job.circuit in
      let b = Compiled.create chained in
      let r, timeline =
        Sic_firesim.Driver.run_random ~bits:(Rng.bits30 rng) ~cycles:job.budget
          ~timeline_every:job.sample_every
          ~on_sample:(fun ~cycles ~covered -> notify ~cycles ~covered)
          b chain
      in
      finish ?timeline ~sim_cycles:(b.Backend.cycles ()) r.Sic_firesim.Driver.counts
  | Fuzz ->
      let h = Sic_fuzz.Fuzzer.make_harness job.circuit in
      let r =
        Sic_fuzz.Fuzzer.run ~seed:job.seed ~execs:job.budget ~seed_cycles:32 ~max_cycles:128
          ~corpus:job.corpus
          ?snapshot_every:(if job.sample_every > 0 then Some job.sample_every else None)
          ~on_snapshot:(fun ~execs ~covered -> notify ~cycles:execs ~covered)
          h
      in
      let timeline =
        if job.sample_every > 0 then Some r.Sic_fuzz.Fuzzer.timeline else None
      in
      finish ?timeline ~sim_cycles:r.Sic_fuzz.Fuzzer.final.Sic_fuzz.Fuzzer.execs
        r.Sic_fuzz.Fuzzer.final.Sic_fuzz.Fuzzer.cumulative
  | Lanes ->
      (* one tape pass advances every packed run at once; each lane's
         stimulus stream is the same [Rng.bits30 (Rng.create seed)] a solo
         job would draw, so each lane's counts are byte-identical to the
         solo run's — packing is a scheduling decision, not a semantic
         one. No timeline (there is no single convergence curve for k
         interleaved runs) and no heartbeats (the pass is one call). *)
      let seeds = Array.append [| job.seed |] job.lane_seeds in
      let k = Array.length seeds in
      let lt = Lanes.build ~lanes:k job.circuit in
      Backend.reset_sequence (Lanes.to_backend ~name:"lanes" lt);
      let streams = Array.map (fun s -> Rng.bits30 (Rng.create s)) seeds in
      Lanes.run_random lt ~streams ~cycles:job.budget;
      let per_lane = List.init k (Lanes.lane_counts lt) in
      notify ~cycles:(job.budget * k)
        ~covered:(Counts.covered_points (List.hd per_lane));
      finish ~lane_extra:(List.tl per_lane) ~sim_cycles:(job.budget * k)
        (List.hd per_lane)
  | Bmc ->
      let covers = match job.covers with [] -> None | l -> Some l in
      let report = Sic_formal.Bmc.check_covers ~bound:job.budget ?covers job.circuit in
      (* a reachable cover counts once (the witness trace reaches it); an
         unreachable-within-bound cover is reported at zero so the
         aggregate still knows the point exists *)
      let counts = Counts.create () in
      List.iter
        (fun (name, verdict) ->
          match verdict with
          | Sic_formal.Bmc.Reachable _ -> Counts.set counts name 1
          | Sic_formal.Bmc.Unreachable_within_bound -> Counts.set counts name 0)
        report.Sic_formal.Bmc.results;
      finish ~sim_cycles:job.budget counts
  | Bmc_witness ->
      (* the closure loop's job kind: prove reachability, then {e replay}
         each witness through the fast compiled backend in-worker — the
         replay both confirms the witness actually fires its target
         (differential check of BMC against the simulator, for free) and
         harvests the trace's full coverage, which is far richer than the
         1-hit BMC verdict. Unreachable-within-bound targets report 0 so
         the orchestrator can tell "proven absent" from "not targeted". *)
      let covers = match job.covers with [] -> None | l -> Some l in
      let report = Sic_formal.Bmc.check_covers ~bound:job.budget ?covers job.circuit in
      let counts = ref (Counts.create ()) in
      let witnesses = ref [] in
      List.iter
        (fun (name, verdict) ->
          match verdict with
          | Sic_formal.Bmc.Unreachable_within_bound -> Counts.set !counts name 0
          | Sic_formal.Bmc.Reachable trace ->
              let b = Compiled.create job.circuit in
              Replay.replay b trace;
              let harvest = b.Backend.counts () in
              if Counts.get harvest name > 0 then begin
                witnesses := (name, trace) :: !witnesses;
                counts := Counts.merge [ !counts; harvest ]
              end
              else
                (* a witness the simulator disagrees with is a real bug
                   somewhere; surface it as a failed job, not silence *)
                failwith
                  (Printf.sprintf "witness for %s does not fire under replay" name))
        report.Sic_formal.Bmc.results;
      finish ~witnesses:(List.rev !witnesses) ~sim_cycles:job.budget !counts

(* ------------------------------------------------------------------ *)
(* The worker pool                                                      *)
(* ------------------------------------------------------------------ *)

(* Worker -> parent protocol (documented in DESIGN.md): every message is
   one [Marshal.to_string] of a {!message} — heartbeats while the job
   runs, then its result, which carries the job's outcome and, when
   telemetry is on, the worker's {!Obs.export}. Marshal is type-safe here
   only because parent and worker are the same forked binary, so the
   value's type is the same on both ends of the pipe; the text formats
   (counts, timeline, profile, trace) stay for what leaves the process
   tree. A new result field is one more field of [job_result].

   A pooled worker outlives its job, so a message ends where Marshal's own
   header says it does ([Marshal.total_size]), not at EOF, and the next
   message follows it. The parent unmarshals only once the whole message
   has arrived, so a worker that dies mid-write never hands it a partial
   value. The other direction is one dispatch line per job on the
   worker's command pipe: [<position> <crash>], the job's position in the
   list the worker inherited and the crash-injection flag. *)

type decoded = {
  outcome : (job_result, string) result;
      (** the job's verdict: [Error] is a {e worker-reported} failure *)
  telemetry : Obs.export option;  (** the worker's telemetry; [None] when off *)
}

type message = Heartbeat of { cycles : int; covered : int } | Result of decoded

let marshal_message (m : message) = Marshal.to_string m []

(* a job's result message, with this worker's telemetry *)
let encode outcome =
  let telemetry = if Obs.on () then Some (Obs.export ()) else None in
  marshal_message (Result { outcome; telemetry })

let encode_ok (r : job_result) : string = encode (Ok r)

(* exactly one whole message: a string of any other length, or one that
   is not Marshal output, is an [Error] *)
let unmarshal_message (s : string) : (message, string) result =
  match
    if Marshal.total_size (Bytes.unsafe_of_string s) 0 <> String.length s then
      failwith "its length disagrees with its contents";
    (Marshal.from_string s 0 : message)
  with
  | m -> Ok m
  | exception (Failure m | Invalid_argument m) -> Error ("bad worker message: " ^ m)

let decode (s : string) : (decoded, string) result =
  match unmarshal_message s with
  | Ok (Result d) -> Ok d
  | Ok (Heartbeat _) -> Error "a worker heartbeat, not a result"
  | Error m -> Error m

(* A write after the parent closed the result pipe raises
   Unix_error (EPIPE) rather than killing the worker: sic ignores SIGPIPE
   process-wide (bin/sic.ml), and [run_jobs] ignores it while its pool
   lives. The worker's catch-all absorbs it and the worker exits; the
   parent records the job from whatever arrived (usually a retry). *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(** How often (seconds) a worker is willing to write a heartbeat; the
    sampling hooks can fire far more often than the parent cares. *)
let heartbeat_interval_s = 0.05

(* One job inside a worker: heartbeats go to [wfd] as it runs, the result
   payload is returned. The worker's recorded telemetry is dropped first,
   so the lane it exports holds this job's events only (t0 is inherited
   from the parent, so timestamps stay on the campaign clock). *)
let run_in_worker (job : job) (wfd : Unix.file_descr) : string =
  if Obs.on () then Obs.reset ();
  let last_hb = ref 0. in
  let progress ~cycles ~covered =
    let now = Unix.gettimeofday () in
    if now -. !last_hb >= heartbeat_interval_s then begin
      last_hb := now;
      write_all wfd (marshal_message (Heartbeat { cycles; covered }))
    end
  in
  encode
    (match
       Obs.span "fleet.job"
         ~args:
           [
             ("job", Obs.Int job.index);
             ("design", Obs.Str job.design);
             ("backend", Obs.Str (backend_name job.backend));
             ("seed", Obs.Int job.seed);
           ]
         (fun () -> run_job ~progress job)
     with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e))

(** What a forked worker does: read a dispatch line [<position> <crash>]
    off [cmd], run [work.(position)], write its heartbeats and result to
    [wfd], and wait for the next line; exit on EOF on [cmd]. [crash = 1]
    makes the worker SIGKILL itself (the failure-isolation test hook).
    Exits via [Unix._exit] so the parent's buffered channels and
    [at_exit] hooks never run twice. *)
let worker_main (work : job array) (cmd : Unix.file_descr) (wfd : Unix.file_descr) : 'a =
  (* runtime prints from the simulated design belong to the job, not to
     the campaign's terminal *)
  Obs.sink := ignore;
  let ic = Unix.in_channel_of_descr cmd in
  (try
     while true do
       let pos, crash = Scanf.sscanf (input_line ic) "%d %d" (fun p c -> (p, c)) in
       if crash = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
       write_all wfd (run_in_worker work.(pos) wfd)
     done
   with _ -> ());
  Unix._exit 0

(** What the orchestrator reports as a campaign unfolds — the feed behind
    [sic campaign --progress] (and any future TUI). *)
type job_event =
  | Job_started of { job : job; attempt : int }
  | Job_heartbeat of { job : job; hb_cycles : int; hb_covered : int }
  | Job_retried of { job : job; attempt : int; why : string }
  | Job_finished of { job : job; result : (job_result, string) result }

(* a job handed to a worker *)
type task = {
  pos : int;  (** position in [run_jobs]'s list, as the dispatch line names it *)
  t_job : job;
  attempt : int;  (** 0-based *)
  dispatched : float;  (** wall clock, for the timeout *)
  t_start_us : float;  (** on the telemetry clock, for the attempt span *)
  mutable timed_out : bool;
}

type worker = {
  pid : int;
  cmd : Unix.file_descr;  (** dispatch lines, parent to worker *)
  rfd : Unix.file_descr;  (** heartbeats and results, worker to parent *)
  buf : Buffer.t;  (** result-pipe bytes not yet consumed *)
  mutable task : task option;  (** [None] while idle *)
}

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let select_retry rfds timeout =
  match Unix.select rfds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let kill_quietly pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let death_reason status =
  (* OCaml signal numbers are negative internals; name the common ones *)
  let signal_name s =
    if s = Sys.sigkill then "SIGKILL"
    else if s = Sys.sigsegv then "SIGSEGV"
    else if s = Sys.sigterm then "SIGTERM"
    else if s = Sys.sigint then "SIGINT"
    else if s = Sys.sigabrt then "SIGABRT"
    else string_of_int s
  in
  match status with
  | Unix.WEXITED n -> Printf.sprintf "worker exited with status %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "worker killed by signal %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "worker stopped by signal %s" (signal_name s)

(** Run every job on a pool of at most [jobs] forked workers that lives
    for this call: each worker inherits the job list through the fork and
    runs one job after another as the parent dispatches them. Per-job
    [timeout_s] (from dispatch) and [retries] (extra attempts after a
    crash, a timeout or a job-level exception); a job that still fails is
    returned as [Error reason] — the campaign never dies with its
    workers, and a dead worker is replaced while jobs wait. Results come
    back in input order regardless of completion order. [inject_crash]
    marks jobs whose workers kill themselves hard (testing); [on_event]
    observes dispatches ([Job_started]), heartbeats, retries and
    finishes as they happen. Every worker is reaped before this returns
    or raises. *)
let run_jobs ?(jobs = 1) ?timeout_s ?(retries = 1) ?(inject_crash = fun _ -> false)
    ?on_event (work : job list) : (job * (job_result, string) result) list =
  let jobs = max 1 jobs in
  let emit ev = match on_event with Some f -> f ev | None -> () in
  let work = Array.of_list work in
  let results = Array.make (Array.length work) None in
  let pending = Queue.create () in
  Array.iteri (fun pos _ -> Queue.add (pos, 0) pending) work;
  let pool : worker list ref = ref [] in
  let busy w = w.task <> None in
  let gauge_in_flight () =
    Obs.gauge "fleet.jobs_in_flight" (float_of_int (List.length (List.filter busy !pool)))
  in
  let spawn () =
    let cmd_r, cmd_w = Unix.pipe () in
    let rfd, wfd = Unix.pipe () in
    (* the parent's pending buffered output must not be replayed by the
       child's libc on its own descriptors *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (* keep only this worker's own ends: a sibling holding another
           worker's command pipe open would keep that worker from ever
           seeing EOF *)
        List.iter
          (fun w ->
            close_quietly w.cmd;
            close_quietly w.rfd)
          !pool;
        close_quietly cmd_w;
        close_quietly rfd;
        worker_main work cmd_r wfd
    | pid ->
        Unix.close cmd_r;
        Unix.close wfd;
        Obs.count "fleet.workers_spawned";
        let w = { pid; cmd = cmd_w; rfd; buf = Buffer.create 4096; task = None } in
        pool := !pool @ [ w ];
        w
  in
  let dispatch w (pos, attempt) =
    let job = work.(pos) in
    (* decide crash injection in the parent: the hook may be stateful
       (e.g. "crash only on the first attempt"), and worker-side mutations
       would be lost with the worker *)
    let crash = inject_crash job in
    w.task <-
      Some
        {
          pos;
          t_job = job;
          attempt;
          dispatched = Unix.gettimeofday ();
          t_start_us = Obs.now_us ();
          timed_out = false;
        };
    (* a worker that died idle fails this write; its result pipe then
       reports the death *)
    (try write_all w.cmd (Printf.sprintf "%d %d\n" pos (if crash then 1 else 0))
     with Unix.Unix_error _ -> ());
    gauge_in_flight ();
    emit (Job_started { job; attempt })
  in
  (* merge a finished job's telemetry as one lane of the campaign trace *)
  let import_telemetry (t : task) telemetry =
    match telemetry with
    | Some x when Obs.on () ->
        let label =
          Printf.sprintf "job %d %s/%s seed=%d%s" t.t_job.index t.t_job.design
            (backend_name t.t_job.backend)
            t.t_job.seed
            (if t.attempt > 0 then Printf.sprintf " attempt %d" (t.attempt + 1) else "")
        in
        Obs.import ~label x
    | _ -> ()
  in
  (* record one attempt's outcome: a result, a retry, or a failure *)
  let settle (t : task) outcome =
    gauge_in_flight ();
    (* one parent-side span per attempt: even a worker that died without
       shipping telemetry still shows up in the merged schedule *)
    if Obs.on () then
      Obs.record_span ~name:"fleet.attempt" ~start_us:t.t_start_us
        ~dur_us:(Obs.now_us () -. t.t_start_us)
        [
          ("job", Obs.Int t.t_job.index);
          ("design", Obs.Str t.t_job.design);
          ("backend", Obs.Str (backend_name t.t_job.backend));
          ("attempt", Obs.Int (t.attempt + 1));
          ("ok", Obs.Bool (match outcome with Ok _ -> true | Error _ -> false));
        ];
    match outcome with
    | Ok r ->
        results.(t.pos) <- Some (Ok r);
        emit (Job_finished { job = t.t_job; result = Ok r })
    | Error why when t.attempt < retries ->
        Obs.instant "fleet.retry"
          ~args:
            [
              ("job", Obs.Int t.t_job.index);
              ("attempt", Obs.Int (t.attempt + 1));
              ("why", Obs.Str why);
            ];
        emit (Job_retried { job = t.t_job; attempt = t.attempt + 1; why });
        Queue.add (t.pos, t.attempt + 1) pending
    | Error why ->
        Obs.count "fleet.failed_jobs";
        results.(t.pos) <- Some (Error why);
        emit (Job_finished { job = t.t_job; result = Error why })
  in
  (* a worker is gone (it died, or was killed for a timeout or an
     unframeable result): reap it and fail its job, if it had one *)
  let bury ?why w =
    close_quietly w.cmd;
    close_quietly w.rfd;
    let _, status = waitpid_retry w.pid in
    pool := List.filter (fun x -> x != w) !pool;
    Option.iter
      (fun t ->
        w.task <- None;
        settle t
          (Error
             (match why with
             | Some m -> m
             | None when t.timed_out ->
                 Printf.sprintf "timeout after %.1fs" (Option.value ~default:0. timeout_s)
             | None -> death_reason status)))
      w.task
  in
  (* consume what a busy worker wrote, one whole message at a time: its
     Marshal header gives its length, and the worker stays alive, so EOF
     never marks the end. Bytes that are not a message leave the pipe
     unusable for the next job too: the worker goes *)
  let rec scan w =
    let have = Buffer.length w.buf in
    match w.task with
    | Some t when have >= Marshal.header_size -> (
        let garbled m =
          kill_quietly w.pid;
          bury ~why:m w
        in
        let header = Bytes.unsafe_of_string (Buffer.sub w.buf 0 Marshal.header_size) in
        match Marshal.total_size header 0 with
        | exception Failure m -> garbled ("bad worker message: " ^ m)
        | n when have >= n -> (
            let msg = Buffer.sub w.buf 0 n in
            let rest = Buffer.sub w.buf n (have - n) in
            Buffer.clear w.buf;
            Buffer.add_string w.buf rest;
            match unmarshal_message msg with
            | Ok (Heartbeat { cycles; covered }) ->
                emit
                  (Job_heartbeat { job = t.t_job; hb_cycles = cycles; hb_covered = covered });
                scan w
            | Ok (Result d) ->
                w.task <- None;
                import_telemetry t d.telemetry;
                settle t d.outcome
            | Error m -> garbled m)
        | _ -> ())
    | _ -> ()
  in
  (* hand waiting jobs to idle workers, forking while the pool is below
     [jobs]: [min jobs n] forks up front, one more per death that leaves
     jobs waiting *)
  let rec fill () =
    if not (Queue.is_empty pending) then
      match List.find_opt (fun w -> not (busy w)) !pool with
      | Some w ->
          dispatch w (Queue.pop pending);
          fill ()
      | None when List.length !pool < jobs ->
          dispatch (spawn ()) (Queue.pop pending);
          fill ()
      | None -> ()
  in
  (* idle workers exit on EOF on their command pipe; busy ones remain
     only when this call raises, and are killed *)
  let shutdown () =
    List.iter
      (fun w ->
        if busy w then kill_quietly w.pid;
        close_quietly w.cmd)
      !pool;
    List.iter
      (fun w ->
        close_quietly w.rfd;
        try ignore (waitpid_retry w.pid) with Unix.Unix_error _ -> ())
      !pool;
    pool := []
  in
  let chunk = Bytes.create 65536 in
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      shutdown ();
      Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      while (not (Queue.is_empty pending)) || List.exists busy !pool do
        fill ();
        let readable = select_retry (List.map (fun w -> w.rfd) !pool) 0.05 in
        List.iter
          (fun fd ->
            match List.find_opt (fun w -> w.rfd = fd) !pool with
            | None -> ()
            | Some w -> (
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> bury w
                | n ->
                    Buffer.add_subbytes w.buf chunk 0 n;
                    scan w
                | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
                  ->
                    bury w))
          readable;
        match timeout_s with
        | None -> ()
        | Some limit ->
            let now = Unix.gettimeofday () in
            List.iter
              (fun w ->
                match w.task with
                | Some t when (not t.timed_out) && now -. t.dispatched > limit ->
                    t.timed_out <- true;
                    Obs.instant "fleet.timeout"
                      ~args:
                        [ ("job", Obs.Int t.t_job.index); ("attempt", Obs.Int (t.attempt + 1)) ];
                    kill_quietly w.pid
                | _ -> ())
              !pool
      done);
  Array.to_list
    (Array.mapi
       (fun pos job ->
         (job, Option.value ~default:(Error "job lost by the orchestrator") results.(pos)))
       work)

(* ------------------------------------------------------------------ *)
(* Campaigns: waves of jobs over a database                             *)
(* ------------------------------------------------------------------ *)

type spec = {
  designs : (string * Sic_ir.Circuit.t) list;
      (** instrumented and lowered; the orchestrator only applies removal *)
  waves : backend list list;  (** one entry per wave, cheap to expensive *)
  seeds : int;  (** runs per (design, backend) within a wave *)
  lanes : int;
      (** runs packed bit-parallel into each [Lanes] job (clamped to
          [1, 62]); other backends ignore it. Pure scheduling: the runs
          recorded — seeds, counts, database bytes — are identical at any
          value, only the jobs-per-run ratio (and the wall clock) moves *)
  cycles : int;  (** budget of the simulation and FPGA backends *)
  execs : int;  (** budget of the fuzzing backend *)
  bound : int;  (** budget of the BMC backend *)
  scan_width : int;
  master_seed : int;
  jobs : int;
  timeout_s : float option;
  retries : int;
  threshold : int;  (** §5.3 removal threshold applied between waves *)
  timeline_every : int;
      (** convergence-timeline sampling period (budget units); 0 = off *)
  profile : bool;
      (** have compiled-engine workers ship per-instruction hit profiles;
          merged into {!summary.profile} *)
}

let default_spec =
  {
    designs = [];
    waves = [ [ Compiled ] ];
    seeds = 1;
    lanes = 1;
    cycles = 1000;
    execs = 300;
    bound = 10;
    scan_width = 16;
    master_seed = 0;
    jobs = 1;
    timeout_s = None;
    retries = 1;
    threshold = 1;
    timeline_every = 100;
    profile = false;
  }

(** Record one job's outcome in [db], in lane order: a lane job lands one
    run per lane, exactly the records its runs would have landed solo,
    with the job's wall time split evenly across them (lane 0 keeps the
    timeline); a failed job lands one failed run per lane. *)
let commit (db : Db.t) ((job : job), outcome) =
  let seeds = Array.append [| job.seed |] job.lane_seeds in
  let add ?wall_us ?timeline seed counts =
    ignore
      (Db.add db ~design:job.design ~circuit_hash:job.circuit_hash
         ~backend:(backend_name job.backend) ~workload:(workload_name job.backend) ~seed
         ~cycles:job.budget ~wave:job.wave ?wall_us ?timeline counts)
  in
  match outcome with
  | Ok (r : job_result) ->
      let wall_us = r.wall_us /. float_of_int (Array.length seeds) in
      List.iteri
        (fun l c ->
          add ~wall_us ?timeline:(if l = 0 then r.timeline else None) seeds.(l) (Ok c))
        (r.counts :: r.lane_extra)
  | Error why -> Array.iter (fun s -> add s (Error why)) seeds

let lanes_per_job (spec : spec) = max 1 (min 62 spec.lanes)

(** How many jobs the spec will enumerate, before any of them run — what a
    progress display sizes itself against. A [Lanes] entry packs
    [spec.lanes] of its [spec.seeds] runs into each job. *)
let spec_total_jobs (spec : spec) =
  let jobs_of = function
    | Lanes ->
        let l = lanes_per_job spec in
        (spec.seeds + l - 1) / l
    | _ -> spec.seeds
  in
  List.length spec.designs
  * List.fold_left
      (fun acc wave -> acc + List.fold_left (fun a b -> a + jobs_of b) 0 wave)
      0 spec.waves

type summary = {
  total_jobs : int;
  ok : int;
  failed : int;
  skipped : int;  (** jobs of designs the removal pass left with no points *)
  waves_run : int;
  removed_points : int;  (** cover points stripped by inter-wave removal *)
  points_total : int;
  points_covered : int;
  sim_cycles : int;
      (** total simulated budget units over successful jobs — a lane job
          contributes [budget x lanes], so this is the waves x jobs x
          lanes aggregate behind the summary's cycles/sec figure *)
  elapsed_s : float;  (** campaign wall time *)
  profile : Profile.t;
      (** the campaign's merged engine profile ([[]] unless
          [spec.profile]); one section per distinct instrumented circuit,
          so a multi-wave campaign whose removal pass rewrote a design
          keeps that wave's tape separate instead of corrupting the sum *)
}

(* ------------------------------------------------------------------ *)
(* Live progress                                                        *)
(* ------------------------------------------------------------------ *)

(** The single-line status renderer behind [sic campaign --progress]: a
    {!job_event} consumer that keeps done/failed/running counts, a
    union-max estimate of points covered so far, throughput over finished
    and in-flight work, and an ETA. Renders with [\r] to one channel at
    most ~10x a second; purely cosmetic, so it uses wall-clock time
    directly rather than the telemetry clock. *)
module Progress = struct
  type t = {
    out : out_channel;
    label : string;  (** line prefix: "campaign", or "watch" for [sic watch] *)
    total : int;
    started : float;
    mutable done_ : int;  (** finished jobs, failed included *)
    mutable failed : int;
    mutable skipped : int;  (** jobs never run, counted as done *)
    mutable running : int;
    mutable units_finished : int;  (** budget units from finished jobs *)
    hb : (int, int) Hashtbl.t;  (** job index -> latest heartbeat cycles *)
    mutable covered : Counts.t;  (** union-max over finished Ok runs *)
    mutable ext : (int * int * int) option;
        (** externally-fed (covered, total points, units): {!update}
            replaces the locally-accumulated counters with a server's *)
    mutable last_render : float;
    mutable last_len : int;
  }

  let create ?(out = stderr) ?(label = "campaign") ~total () =
    {
      out;
      label;
      total;
      started = Unix.gettimeofday ();
      done_ = 0;
      failed = 0;
      skipped = 0;
      running = 0;
      units_finished = 0;
      hb = Hashtbl.create 16;
      covered = Counts.create ();
      ext = None;
      last_render = 0.;
      last_len = 0;
    }

  let line t =
    let elapsed = Unix.gettimeofday () -. t.started in
    let covered_pts, total_pts, units =
      match t.ext with
      | Some (c, tot, u) -> (c, tot, u)
      | None ->
          let in_flight = Hashtbl.fold (fun _ c acc -> acc + c) t.hb 0 in
          ( Counts.covered_points t.covered,
            Counts.total_points t.covered,
            t.units_finished + in_flight )
    in
    let throughput =
      if elapsed > 0. then float_of_int units /. elapsed else 0.
    in
    let eta =
      if t.total > 0 && t.done_ > 0 && t.done_ < t.total then
        Printf.sprintf " | ETA %.0fs"
          (elapsed /. float_of_int t.done_ *. float_of_int (t.total - t.done_))
      else ""
    in
    let progress =
      (* total = 0: an open-ended stream (sic watch), no denominator *)
      if t.total > 0 then Printf.sprintf "%d/%d done" t.done_ t.total
      else Printf.sprintf "%d done" t.done_
    in
    Printf.sprintf "%s %s%s%s, %d running | %d/%d pts | %.0f cyc/s%s" t.label progress
      (if t.failed > 0 then Printf.sprintf " (%d failed)" t.failed else "")
      (if t.skipped > 0 then Printf.sprintf " (%d skipped)" t.skipped else "")
      t.running covered_pts total_pts throughput eta

  let render ?(force = false) t =
    let now = Unix.gettimeofday () in
    if force || now -. t.last_render >= 0.1 then begin
      t.last_render <- now;
      let s = line t in
      (* pad over the previous, possibly longer, line *)
      let pad = max 0 (t.last_len - String.length s) in
      Printf.fprintf t.out "\r%s%s%!" s (String.make pad ' ');
      t.last_len <- String.length s
    end

  let on_event t (ev : job_event) =
    (match ev with
    | Job_started _ -> t.running <- t.running + 1
    | Job_heartbeat { job; hb_cycles; hb_covered = _ } ->
        Hashtbl.replace t.hb job.index hb_cycles
    | Job_retried { job; _ } ->
        t.running <- t.running - 1;
        Hashtbl.remove t.hb job.index
    | Job_finished { job; result } ->
        t.running <- t.running - 1;
        t.done_ <- t.done_ + 1;
        Hashtbl.remove t.hb job.index;
        (match result with
        | Ok r ->
            t.units_finished <- t.units_finished + r.sim_cycles;
            t.covered <- Counts.union_max [ t.covered; r.counts ]
        | Error _ -> t.failed <- t.failed + 1));
    render t

  (** Drive the renderer from an external aggregate — the [sic watch]
      client, which learns absolute counters from a server's SSE events
      rather than from local job events. *)
  let update t ~done_ ~failed ~running ~covered ~points ~units =
    t.done_ <- done_;
    t.failed <- failed;
    t.running <- running;
    t.ext <- Some (covered, points, units);
    render t

  let finish ?(skipped = 0) t =
    t.skipped <- skipped;
    t.done_ <- t.done_ + skipped;
    render ~force:true t;
    output_string t.out "\n";
    flush t.out
end

let budget_of spec = function
  | Interp | Compiled | Essent | Fpga | Lanes -> spec.cycles
  | Fuzz -> spec.execs
  | Bmc | Bmc_witness -> spec.bound

(** Run a whole campaign into [db]. Jobs are enumerated wave by wave,
    design-major then backend then seed index, so the job list — and with
    it every derived seed and the database contents — is independent of
    [-j]. [inject_crash] receives the global job index (testing hook);
    [on_event] feeds a progress display. *)
let run_campaign ?(inject_crash = fun _ -> false) ?on_event ~(db : Db.t) (spec : spec) :
    summary =
  let t0 = Unix.gettimeofday () in
  let master = Rng.create spec.master_seed in
  (* two counters: runs get seeds, jobs get pipe-scheduling indices. For
     every backend but [Lanes] they advance in lockstep (one run per job,
     seeds unchanged from before lane packing existed); a [Lanes] job
     consumes [spec.lanes] run indices at once, so the set of seeds — and
     with it the database — is invariant under the packing factor *)
  let job_counter = ref 0 in
  let run_counter = ref 0 in
  let next_seed () =
    let run_index = !run_counter in
    incr run_counter;
    Int64.to_int (Int64.logand (Rng.next64 (Rng.split master run_index)) 0x3FFFFFFFL)
  in
  let ok = ref 0 and failed = ref 0 and skipped = ref 0 and removed_total = ref 0 in
  let sim_cycles_total = ref 0 in
  (* per-circuit-hash profile accumulator, in job (hence deterministic)
     order: profiles merge positionally, so only runs of the identical
     instrumented circuit may fold together — the same design re-lowered
     by a later wave's removal pass is a different tape *)
  let prof_order : string list ref = ref [] in
  let profs : (string, Profile.design_profile) Hashtbl.t = Hashtbl.create 8 in
  let add_profile circuit_hash (d : Profile.design_profile) =
    match Hashtbl.find_opt profs circuit_hash with
    | None ->
        prof_order := circuit_hash :: !prof_order;
        Hashtbl.replace profs circuit_hash d
    | Some prev -> (
        match Profile.merge [ [ prev ]; [ d ] ] with
        | [ m ] -> Hashtbl.replace profs circuit_hash m
        (* a malformed worker profile must not kill the campaign *)
        | _ -> Obs.count "fleet.profile_dropped"
        | exception Profile.Bad_format _ -> Obs.count "fleet.profile_dropped")
  in
  let hash c = Digest.to_hex (Digest.string (Sic_ir.Printer.circuit_to_string c)) in
  List.iteri
    (fun wave_idx backends ->
      Obs.span "fleet.wave" ~args:[ ("wave", Obs.Int wave_idx) ] @@ fun () ->
      (* §5.3: strip points the database already covers before this wave *)
      let covered_so_far =
        if Db.runs db = [] then Counts.create () else Db.removal_counts db
      in
      let wave_designs =
        List.map
          (fun (name, circuit) ->
            let r = Removal.remove_covered ~threshold:spec.threshold covered_so_far circuit in
            removed_total := !removed_total + List.length r.Removal.removed;
            (name, r.Removal.circuit, hash r.Removal.circuit, r.Removal.kept <> []))
          spec.designs
      in
      let wave_jobs =
        List.concat_map
          (fun (design, circuit, circuit_hash, has_points) ->
            let jobs =
              List.concat_map
                (fun backend ->
                  let mk ~seed ~lane_seeds =
                    let index = !job_counter in
                    incr job_counter;
                    {
                      index;
                      design;
                      circuit;
                      circuit_hash;
                      backend;
                      seed;
                      lane_seeds;
                      budget = budget_of spec backend;
                      wave = wave_idx;
                      scan_width = spec.scan_width;
                      sample_every = spec.timeline_every;
                      profile = spec.profile;
                      covers = [];
                      corpus = [];
                    }
                  in
                  match backend with
                  | Lanes ->
                      (* pack this (design, backend)'s seeds runs into
                         ceil(seeds/lanes) bit-parallel jobs *)
                      let l = lanes_per_job spec in
                      let rec pack remaining acc =
                        if remaining = 0 then List.rev acc
                        else begin
                          let k = min l remaining in
                          let seeds = Array.make k 0 in
                          for i = 0 to k - 1 do
                            seeds.(i) <- next_seed ()
                          done;
                          pack (remaining - k)
                            (mk ~seed:seeds.(0) ~lane_seeds:(Array.sub seeds 1 (k - 1))
                            :: acc)
                        end
                      in
                      pack spec.seeds []
                  | _ ->
                      List.init spec.seeds (fun _s ->
                          mk ~seed:(next_seed ()) ~lane_seeds:[||]))
                backends
            in
            (* a design the removal pass left without points has nothing
               to run; its jobs still drew their seeds and indices above,
               so every other run keeps its seed *)
            if has_points then jobs
            else begin
              skipped := !skipped + List.length jobs;
              Obs.count ~by:(List.length jobs) "fleet.jobs_skipped";
              []
            end)
          wave_designs
      in
      let results =
        run_jobs ~jobs:spec.jobs ?timeout_s:spec.timeout_s ~retries:spec.retries
          ~inject_crash:(fun j -> inject_crash j.index)
          ?on_event wave_jobs
      in
      (* wave barrier: commit in job order, so the manifest is as
         deterministic as the aggregate *)
      Obs.span "fleet.merge" ~args:[ ("wave", Obs.Int wave_idx) ] (fun () ->
          List.iter
            (fun ((job, outcome) as result) ->
              (match outcome with
              | Ok (r : job_result) ->
                  incr ok;
                  sim_cycles_total := !sim_cycles_total + r.sim_cycles;
                  Option.iter (add_profile job.circuit_hash) r.prof
              | Error _ -> incr failed);
              commit db result)
            results);
      let agg = Db.aggregate db in
      Obs.gauge "fleet.points_remaining"
        (float_of_int (Counts.total_points agg - Counts.covered_points agg)))
    spec.waves;
  let agg = Db.aggregate db in
  {
    total_jobs = !job_counter;
    ok = !ok;
    failed = !failed;
    skipped = !skipped;
    waves_run = List.length spec.waves;
    removed_points = !removed_total;
    points_total = Counts.total_points agg;
    points_covered = Counts.covered_points agg;
    sim_cycles = !sim_cycles_total;
    elapsed_s = Unix.gettimeofday () -. t0;
    profile = List.rev_map (Hashtbl.find profs) !prof_order;
  }

let render_summary (s : summary) : string =
  Printf.sprintf
    "campaign: %d jobs in %d waves (%d ok, %d failed, %d skipped), %d points removed \
     pre-instrumentation\n\
     coverage: %d/%d points (%.1f%%)\n\
     throughput: %d simulated units in %.1fs (%.0f units/s aggregate over waves x jobs x \
     lanes)\n"
    s.total_jobs s.waves_run s.ok s.failed s.skipped s.removed_points s.points_covered s.points_total
    (if s.points_total = 0 then 100.
     else 100. *. float_of_int s.points_covered /. float_of_int s.points_total)
    s.sim_cycles s.elapsed_s
    (if s.elapsed_s > 0. then float_of_int s.sim_cycles /. s.elapsed_s else 0.)
