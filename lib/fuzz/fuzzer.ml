(** Mutational coverage-directed fuzzing (§5.4).

    An AFL-style loop over an rfuzz-style harness: the input is a flat
    byte string, consumed a fixed number of bytes per clock cycle to drive
    the DUT's input ports; the feedback is *any* coverage metric's counts
    map, bucketed AFL-fashion, so switching feedback metrics is switching
    an instrumentation pass — the paper's point. Mutators are the AFL
    basics: bit flips, byte flips, arithmetic, interesting values, havoc
    and splice. *)

open Sic_ir
module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Obs = Sic_obs.Obs

(* ------------------------------------------------------------------ *)
(* Harness: bytes -> stimulus                                           *)
(* ------------------------------------------------------------------ *)

type harness = {
  circuit : Circuit.t;  (** instrumented, lowered circuit *)
  create : Circuit.t -> Sic_sim.Backend.t;
  inputs : (string * int) list;  (** data inputs: name, width *)
  bytes_per_cycle : int;
  reset_cycles : int;
  unpack : (string * int * int) array;
      (** data inputs in port order: name, bit offset in a cycle's bytes,
          width *)
  mutable engine : Sic_sim.Backend.t option;
      (** built by the first execution, restored before every later one *)
}

let make_harness ?(create = fun c -> Sic_sim.Compiled.create c) ?(reset_cycles = 1)
    (circuit : Circuit.t) : harness =
  let m = Circuit.main circuit in
  let inputs =
    List.filter_map
      (fun (p : Circuit.port) ->
        match p.Circuit.dir with
        | Circuit.Input
          when p.Circuit.port_name <> "clock" && p.Circuit.port_name <> "reset" ->
            Some (p.Circuit.port_name, Ty.width p.Circuit.port_ty)
        | Circuit.Input | Circuit.Output -> None)
      m.Circuit.ports
  in
  let total_bits, unpack =
    List.fold_left_map (fun lo (name, w) -> (lo + w, (name, lo, w))) 0 inputs
  in
  {
    circuit;
    create;
    inputs;
    bytes_per_cycle = max 1 ((total_bits + 7) / 8);
    reset_cycles;
    unpack = Array.of_list unpack;
    engine = None;
  }

(* The engine at power-on: built once per harness, restored after. *)
let power_on (h : harness) : Sic_sim.Backend.t =
  match h.engine with
  | Some b ->
      b.Sic_sim.Backend.restore ();
      b
  | None ->
      let b = h.create h.circuit in
      h.engine <- Some b;
      b

(* Bits [lo, lo + w) of the little-endian bit stream starting at byte
   [base], LSB first: the int path for inputs of at most 62 bits. *)
let bits_int input base lo w =
  let first = base + (lo / 8) and shift = lo mod 8 in
  let v = ref (Char.code (Bytes.get input first) lsr shift) in
  for k = 1 to (shift + w - 1) / 8 do
    v := !v lor (Char.code (Bytes.get input (first + k)) lsl ((8 * k) - shift))
  done;
  !v land ((1 lsl w) - 1)

(* The same bits as a vector of any width. *)
let bits_bv input base lo w =
  let v = ref (Bv.zero w) in
  for i = 0 to w - 1 do
    let bit = lo + i in
    if (Char.code (Bytes.get input (base + (bit / 8))) lsr (bit mod 8)) land 1 = 1 then
      v := Bv.logor ~width:w !v (Bv.shift_left ~width:w (Bv.one w) i)
  done;
  !v

(** Execute one input, returning the coverage counts it produced. *)
let execute_input (h : harness) (input : bytes) : Counts.t =
  let b = power_on h in
  Sic_sim.Backend.reset_sequence ~cycles:h.reset_cycles b;
  let n_cycles = Bytes.length input / h.bytes_per_cycle in
  for cycle = 0 to n_cycles - 1 do
    (* unpack this cycle's bytes into the input ports, LSB first *)
    let base = cycle * h.bytes_per_cycle in
    Array.iter
      (fun (name, lo, w) ->
        b.Sic_sim.Backend.poke name
          (if w = 0 then Bv.zero 0
           else if w <= 62 then Bv.of_int62 ~width:w (bits_int input base lo w)
           else bits_bv input base lo w))
      h.unpack;
    b.Sic_sim.Backend.step 1
  done;
  b.Sic_sim.Backend.counts ()

(** [execute_input], timed into the [fuzz.exec_us] histogram when telemetry
    is on. *)
let execute (h : harness) (input : bytes) : Counts.t =
  if not (Obs.on ()) then execute_input h input
  else begin
    let t0 = Obs.now_us () in
    let counts = execute_input h input in
    Obs.Histogram.add (Obs.histogram "fuzz.exec_us") (Obs.now_us () -. t0);
    Obs.count "fuzz.execs";
    counts
  end

(** Re-encode a replay trace (e.g. a BMC witness) as a fuzzer input: the
    byte string whose per-cycle unpacking pokes the same data-input values
    the trace's post-reset frames carry. Values are matched to harness
    inputs {e by name} — a trace's channels are in its own order (BMC
    sorts them alphabetically), not port order. The first
    [h.reset_cycles] frames are dropped because [execute] replays the
    reset sequence itself. *)
let input_of_trace (h : harness) (t : Sic_sim.Replay.trace) : bytes =
  let names = Array.of_list t.Sic_sim.Replay.input_names in
  let idx_of name =
    let found = ref (-1) in
    Array.iteri (fun i n -> if n = name then found := i) names;
    !found
  in
  let total = Array.length t.Sic_sim.Replay.frames in
  let n_cycles = max 0 (total - h.reset_cycles) in
  let out = Bytes.make (n_cycles * h.bytes_per_cycle) '\000' in
  for cycle = 0 to n_cycles - 1 do
    let frame = t.Sic_sim.Replay.frames.(h.reset_cycles + cycle) in
    let base = cycle * h.bytes_per_cycle in
    let set_bit i =
      let byte = base + (i / 8) in
      Bytes.set out byte
        (Char.chr (Char.code (Bytes.get out byte) lor (1 lsl (i mod 8))))
    in
    Array.iter
      (fun (name, lo, w) ->
        match idx_of name with
        | -1 -> ()
        | i ->
            for bit = 0 to w - 1 do
              if Bv.bit frame.(i) bit then set_bit (lo + bit)
            done)
      h.unpack
  done;
  out

(* ------------------------------------------------------------------ *)
(* On-disk corpora                                                      *)
(* ------------------------------------------------------------------ *)

(** Persist a corpus as one [seedNNNN.bin] file per input. The directory
    is created if missing; existing seed files are overwritten in index
    order (stale higher-numbered files from a larger previous corpus are
    removed first, so the directory always mirrors exactly this list). *)
let save_corpus (dir : string) (seeds : bytes list) : unit =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".bin" then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  List.iteri
    (fun i s ->
      let path = Filename.concat dir (Printf.sprintf "seed%04d.bin" i) in
      Sic_obs.Artifact.save path (Bytes.to_string s))
    seeds

(** Load every [*.bin] file of [dir] in name order; [[]] when the
    directory does not exist. *)
let load_corpus (dir : string) : bytes list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.sort compare
    |> List.map (fun f -> Sic_obs.Artifact.load (Filename.concat dir f) Bytes.of_string)

(* ------------------------------------------------------------------ *)
(* AFL-style feedback signature                                         *)
(* ------------------------------------------------------------------ *)

(* AFL bucket: 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+ *)
let bucket n =
  if n = 0 then 0
  else if n = 1 then 1
  else if n = 2 then 2
  else if n = 3 then 3
  else if n < 8 then 4
  else if n < 16 then 5
  else if n < 32 then 6
  else if n < 128 then 7
  else 8

(** The feedback signature of a run: cover name -> bucketed count. A run
    is "interesting" when its signature covers a (name, bucket) pair never
    seen before. *)
let signature (counts : Counts.t) : (string * int) list =
  List.filter_map
    (fun (n, c) -> if c = 0 then None else Some (n, bucket c))
    (Counts.to_sorted_list counts)

(* ------------------------------------------------------------------ *)
(* Mutators                                                             *)
(* ------------------------------------------------------------------ *)

let interesting_bytes = [| 0; 1; 2; 4; 8; 16; 32; 64; 127; 128; 255 |]

let mutate (rng : Rng.t) (corpus : bytes array) (src : bytes) : bytes =
  let b = Bytes.copy src in
  let len = Bytes.length b in
  let n_mutations = 1 + Rng.int rng 8 in
  let out = ref b in
  for _ = 1 to n_mutations do
    let b = !out in
    let len = Bytes.length b in
    if len > 0 then
      match Rng.int rng 7 with
      | 0 ->
          (* single bit flip *)
          let i = Rng.int rng (len * 8) in
          let c = Char.code (Bytes.get b (i / 8)) in
          Bytes.set b (i / 8) (Char.chr (c lxor (1 lsl (i mod 8))))
      | 1 ->
          (* random byte *)
          Bytes.set b (Rng.int rng len) (Char.chr (Rng.byte rng))
      | 2 ->
          (* interesting value *)
          Bytes.set b (Rng.int rng len)
            (Char.chr interesting_bytes.(Rng.int rng (Array.length interesting_bytes)))
      | 3 ->
          (* arithmetic +/- small delta *)
          let i = Rng.int rng len in
          let d = 1 + Rng.int rng 16 in
          let d = if Rng.bool rng then d else -d in
          Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + d) land 0xff))
      | 4 ->
          (* duplicate a block (growth) *)
          let src_off = Rng.int rng len in
          let n = min (1 + Rng.int rng 16) (len - src_off) in
          out := Bytes.cat b (Bytes.sub b src_off n)
      | 5 ->
          (* truncate (shrink), keeping at least one byte *)
          let n = max 1 (len - (1 + Rng.int rng 16)) in
          out := Bytes.sub b 0 n
      | 6 ->
          (* splice with another corpus entry *)
          if Array.length corpus > 0 then begin
            let other = corpus.(Rng.int rng (Array.length corpus)) in
            if Bytes.length other > 0 then begin
              let cut = Rng.int rng len in
              let cut2 = Rng.int rng (Bytes.length other) in
              out :=
                Bytes.cat (Bytes.sub b 0 cut)
                  (Bytes.sub other cut2 (Bytes.length other - cut2))
            end
          end
      | _ -> ()
  done;
  if Bytes.length !out = 0 then Bytes.make len '\000' else !out

(* ------------------------------------------------------------------ *)
(* Corpus trimming (afl-tmin style)                                     *)
(* ------------------------------------------------------------------ *)

(* does [counts]'s signature still include every pair of [target]? Both
   signatures are sorted by cover name, each name at most once, so one
   merge walk decides it *)
let covers_signature target counts =
  let rec subset target sig_ =
    match (target, sig_) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (tn, tb) :: trest, (sn, sb) :: srest ->
        let c = String.compare tn sn in
        if c = 0 then tb = sb && subset trest srest
        else c > 0 && subset target srest
  in
  subset target (signature counts)

(** Shrink a testcase while preserving its coverage signature: repeatedly
    drop trailing cycles, then whole chunks from the middle, re-executing
    to confirm nothing is lost. Deterministic and quadratic at worst —
    intended for corpus minimization after a campaign, like afl-tmin. *)
let trim (h : harness) (input : bytes) : bytes =
  let target = signature (execute h input) in
  let keeps b = covers_signature target (execute h b) in
  (* phase 1: binary-search the shortest prefix (in whole cycles) *)
  let cycle_len = h.bytes_per_cycle in
  let cycles b = Bytes.length b / cycle_len in
  let prefix b n = Bytes.sub b 0 (n * cycle_len) in
  let rec shortest_prefix lo hi =
    (* invariant: prefix hi works, prefix lo-1... lo may not *)
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if keeps (prefix input mid) then shortest_prefix lo mid
      else shortest_prefix (mid + 1) hi
  in
  let n = shortest_prefix 1 (max 1 (cycles input)) in
  let best = ref (prefix input n) in
  (* phase 2: try deleting one cycle at a time from the middle *)
  let i = ref (cycles !best - 1) in
  while !i >= 0 do
    let b = !best in
    let len = Bytes.length b in
    if cycles b > 1 then begin
      let candidate =
        Bytes.cat (Bytes.sub b 0 (!i * cycle_len))
          (Bytes.sub b ((!i + 1) * cycle_len) (len - ((!i + 1) * cycle_len)))
      in
      if keeps candidate then best := candidate
    end;
    decr i
  done;
  !best

(* ------------------------------------------------------------------ *)
(* The fuzzing loop                                                     *)
(* ------------------------------------------------------------------ *)

type progress = {
  execs : int;
  corpus_size : int;
  seen_pairs : int;  (** distinct (cover, bucket) pairs discovered *)
  cumulative : Counts.t;  (** merged counts over all executions so far *)
}

type result = {
  final : progress;
  history : (int * Counts.t) list;  (** snapshots: execs -> merged counts *)
  timeline : Sic_coverage.Timeline.t;
      (** the same snapshots as a convergence curve (execs -> points hit) *)
  corpus : bytes list;
      (** the final corpus, seeds first then discoveries in find order —
          ready for {!save_corpus} *)
}

(** Run the fuzzer for [execs] executions, seeded deterministically.
    [snapshot_every] controls the coverage-over-time history used by the
    Figure 11 plot. [feedback] selects which cover points feed the AFL
    signature — instrument the circuit with several metrics and filter by
    name prefix to switch feedback metrics, or pass [(fun _ -> false)] for
    feedback-free random fuzzing (the paper's baseline). *)
let run ?(seed = 0) ?(execs = 200) ?(snapshot_every = 10) ?(max_cycles = 16)
    ?(seed_cycles = 4) ?(corpus = []) ?(feedback = fun (_ : string) -> true) ?on_snapshot
    (h : harness) : result =
  let rng = Rng.create seed in
  let seen : (string * int, unit) Hashtbl.t = Hashtbl.create 256 in
  (* the all-zeroes seed first, then any caller-supplied seeds (witness
     traces, a loaded on-disk corpus); each is executed below so its
     coverage lands in [cumulative] even if mutation never revisits it *)
  let corpus = ref (Bytes.make (h.bytes_per_cycle * seed_cycles) '\000' :: corpus) in
  let cumulative = Counts.create () in
  let history = ref [] in
  let n_execs = ref 0 in
  let span = Obs.span_open () in
  let t_start = if Obs.on () then Obs.now_us () else 0. in
  (* the runtime feedback loop of any coverage-guided flow: execs/sec,
     corpus growth, discovery events *)
  let emit_progress () =
    if Obs.on () then begin
      let dt_s = (Obs.now_us () -. t_start) /. 1e6 in
      if dt_s > 0. then Obs.gauge "fuzz.execs_per_sec" (float_of_int !n_execs /. dt_s);
      Obs.gauge "fuzz.corpus_size" (float_of_int (List.length !corpus));
      Obs.gauge "fuzz.seen_pairs" (float_of_int (Hashtbl.length seen))
    end
  in
  let interesting counts =
    let fresh = ref false in
    List.iter
      (fun ((name, _) as pair) ->
        if feedback name && not (Hashtbl.mem seen pair) then begin
          Hashtbl.replace seen pair ();
          fresh := true
        end)
      (signature counts);
    !fresh
  in
  (* seed the corpus through the feedback filter *)
  List.iter
    (fun input ->
      incr n_execs;
      let counts = execute h input in
      Counts.merge_into cumulative counts;
      ignore (interesting counts))
    !corpus;
  while !n_execs < execs do
    let arr = Array.of_list !corpus in
    let parent = arr.(Rng.int rng (Array.length arr)) in
    let child = mutate rng arr parent in
    (* bound the testcase length *)
    let child =
      if Bytes.length child > h.bytes_per_cycle * max_cycles then
        Bytes.sub child 0 (h.bytes_per_cycle * max_cycles)
      else child
    in
    incr n_execs;
    let counts = execute h child in
    Counts.merge_into cumulative counts;
    if interesting counts then begin
      corpus := child :: !corpus;
      if Obs.on () then
        Obs.instant "fuzz.new_coverage"
          ~args:
            [
              ("execs", Obs.Int !n_execs);
              ("corpus_size", Obs.Int (List.length !corpus));
              ("seen_pairs", Obs.Int (Hashtbl.length seen));
            ]
    end;
    if !n_execs mod snapshot_every = 0 then begin
      history := (!n_execs, Hashtbl.copy cumulative) :: !history;
      (match on_snapshot with
      | Some f -> f ~execs:!n_execs ~covered:(Counts.covered_points cumulative)
      | None -> ());
      emit_progress ()
    end
  done;
  emit_progress ();
  let final =
    {
      execs = !n_execs;
      corpus_size = List.length !corpus;
      seen_pairs = Hashtbl.length seen;
      cumulative;
    }
  in
  Obs.span_close span ~name:"fuzz.run"
    [
      ("execs", Obs.Int final.execs);
      ("corpus_size", Obs.Int final.corpus_size);
      ("seen_pairs", Obs.Int final.seen_pairs);
    ];
  let module Timeline = Sic_coverage.Timeline in
  let tlb = Timeline.builder () in
  List.iter
    (fun (execs, counts) ->
      Timeline.record tlb ~at:execs ~covered:(Counts.covered_points counts))
    (List.rev !history);
  Timeline.record tlb ~at:final.execs ~covered:(Counts.covered_points final.cumulative);
  let timeline = Timeline.build ~total:(Counts.total_points final.cumulative) tlb in
  { final; history = List.rev !history; timeline; corpus = List.rev !corpus }
