(** Record-and-replay testbenches (§5.1 methodology).

    [record] runs a stimulus program against a backend while capturing the
    top-level inputs each cycle; [replay] plays a captured trace into any
    backend — a minimal testbench that isolates raw simulation time from
    stimulus generation, and the mechanism behind the cross-backend
    "identical counts" tests. *)

module Bv = Sic_bv.Bv

type trace = {
  input_names : string list;  (** includes reset *)
  frames : Bv.t array array;  (** frames.(cycle).(input index) *)
}

let cycles (t : trace) = Array.length t.frames

(** [record backend ~cycles drive] steps [backend] for [cycles] edges; each
    cycle [drive backend cycle] is called first to poke inputs, then the
    pre-edge input values are captured. *)
let record (b : Backend.t) ~cycles (drive : Backend.t -> int -> unit) : trace =
  let input_names =
    "reset" :: List.map fst (Backend.data_inputs b)
  in
  let frames = Array.make cycles [||] in
  for cycle = 0 to cycles - 1 do
    drive b cycle;
    frames.(cycle) <- Array.of_list (List.map b.Backend.peek input_names);
    b.Backend.step 1
  done;
  { input_names; frames }

(** Replay a trace from the beginning into a fresh backend instance.
    Trace channels that are not inputs of the target (e.g. a full
    waveform dump that also recorded outputs and registers) are
    ignored. *)
let replay (b : Backend.t) (t : trace) =
  let pokable =
    "reset" :: List.map fst (Backend.data_inputs b)
  in
  let names = Array.of_list t.input_names in
  let keep = Array.map (fun n -> List.mem n pokable) names in
  Array.iter
    (fun frame ->
      Array.iteri (fun i v -> if keep.(i) then b.Backend.poke names.(i) v) frame;
      b.Backend.step 1)
    t.frames

(* ------------------------------------------------------------------ *)
(* Text interchange                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad_format = Sic_obs.Artifact.Bad_format

let bad = Sic_obs.Artifact.bad_format

let format_header = "# sic replay trace v1"

(** The pipe/artifact serialization: a versioned header, the input-channel
    names, then one line per cycle of space-separated binary values (the
    string length {e is} each value's width). Line-oriented and fully
    self-describing, in the same house style as the counts and timeline
    formats — fleet workers ship BMC witnesses back over their result
    pipes in exactly this text. *)
let to_string (t : trace) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf format_header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf ("inputs " ^ String.concat " " t.input_names);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "frames %d\n" (Array.length t.frames));
  Array.iter
    (fun frame ->
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (Bv.to_binary_string v))
        frame;
      Buffer.add_char buf '\n')
    t.frames;
  Buffer.contents buf

let of_string (s : string) : trace =
  let lines = String.split_on_char '\n' s in
  match lines with
  | header :: inputs_line :: frames_line :: rest ->
      if not (Sic_obs.Artifact.is_header ~header:format_header 1 (String.trim header)) then
        bad 1 "expected %S, got %S" format_header header;
      let input_names =
        match String.split_on_char ' ' (String.trim inputs_line) with
        | "inputs" :: names when names <> [] -> names
        | _ -> bad 2 "expected `inputs <name>...'"
      in
      let n_frames =
        match String.split_on_char ' ' (String.trim frames_line) with
        | [ "frames"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 -> n
            | _ -> bad 3 "bad frame count %S" n)
        | _ -> bad 3 "expected `frames <n>'"
      in
      let width = List.length input_names in
      let frame_lines = Array.of_list rest in
      if Array.length frame_lines < n_frames then
        bad (4 + Array.length frame_lines) "truncated trace: %d of %d frames"
          (Array.length frame_lines) n_frames;
      let frames =
        Array.init n_frames (fun f ->
            let cells =
              String.split_on_char ' ' (String.trim frame_lines.(f))
              |> List.filter (fun c -> c <> "")
            in
            if List.length cells <> width then
              bad (f + 4) "%d values for %d inputs" (List.length cells) width;
            Array.of_list
              (List.map
                 (fun c ->
                   try Bv.of_binary_string c
                   with Invalid_argument _ -> bad (f + 4) "bad value %S" c)
                 cells))
      in
      { input_names; frames }
  | _ -> bad (List.length lines) "truncated trace header"

(** Save / load a trace as a VCD file, so recorded workloads are ordinary
    waveform artifacts. *)
let save_vcd path (b : Backend.t) (t : trace) =
  let widths =
    List.map
      (fun n ->
        if n = "reset" then ("reset", 1)
        else (n, Sic_ir.Ty.width (List.assoc n (Backend.data_inputs b))))
      t.input_names
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = Vcd.create_writer oc ~scope:"replay" widths in
      Array.iter
        (fun frame ->
          Vcd.sample w (List.mapi (fun i n -> (n, frame.(i))) t.input_names))
        t.frames)

let load_vcd path : trace =
  let wave = Vcd.read_file path in
  let input_names = List.map fst wave.Vcd.signals in
  let frames =
    Array.map
      (fun assignment ->
        Array.of_list
          (List.map
             (fun n ->
               match List.assoc_opt n assignment with
               | Some v -> v
               | None -> Bv.zero 1)
             input_names))
      wave.Vcd.frames
  in
  { input_names; frames }
