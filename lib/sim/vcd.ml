(** Minimal VCD (Value Change Dump) writer and reader.

    The evaluation methodology of §5.1 records a waveform from a real test
    run, then replays only the top-level inputs through a minimal
    testbench, isolating raw simulator time from stimulus generation. The
    writer emits a standard-enough subset (timescale, scope, [$var wire]
    declarations, binary value changes); the reader parses the same subset
    back into per-cycle input assignments. *)

module Bv = Sic_bv.Bv

type var = { var_name : string; var_width : int; code : string }

(* printable VCD id codes: ! .. ~ in as many digits as needed *)
let code_of_index i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let d = Char.chr (first + (i mod base)) in
    let acc = String.make 1 d ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

(** {1 Writer} *)

type writer = {
  oc : out_channel;
  vars : var list;
  mutable last : (string * Bv.t) list;  (** last dumped value per var name *)
  mutable time : int;
}

let create_writer oc ~scope (signals : (string * int) list) : writer =
  output_string oc "$date today $end\n$version sic $end\n$timescale 1ns $end\n";
  Printf.fprintf oc "$scope module %s $end\n" scope;
  let vars =
    List.mapi
      (fun i (var_name, var_width) ->
        let code = code_of_index i in
        Printf.fprintf oc "$var wire %d %s %s $end\n" var_width code var_name;
        { var_name; var_width; code })
      signals
  in
  output_string oc "$upscope $end\n$enddefinitions $end\n";
  { oc; vars; last = []; time = 0 }

let dump_value w (v : var) (value : Bv.t) =
  if v.var_width = 1 then
    Printf.fprintf w.oc "%c%s\n" (if Bv.to_bool value then '1' else '0') v.code
  else Printf.fprintf w.oc "b%s %s\n" (Bv.to_binary_string value) v.code

(** Emit one sample; only changed values are dumped, as in real VCDs. *)
let sample (w : writer) (values : (string * Bv.t) list) =
  Printf.fprintf w.oc "#%d\n" w.time;
  List.iter
    (fun v ->
      match List.assoc_opt v.var_name values with
      | None -> ()
      | Some value ->
          let is_new =
            match List.assoc_opt v.var_name w.last with
            | None -> true
            | Some old -> not (Bv.equal_value old value)
          in
          if is_new then begin
            dump_value w v value;
            w.last <- (v.var_name, value) :: List.remove_assoc v.var_name w.last
          end)
    w.vars;
  w.time <- w.time + 1

(** {1 Reader} *)

type wave = {
  signals : (string * int) list;
  frames : (string * Bv.t) list array;  (** complete assignment per cycle *)
}

exception Vcd_error of string

let read_string (s : string) : wave =
  let lines = String.split_on_char '\n' s in
  let vars = Hashtbl.create 16 in
  (* code -> (name, width) *)
  let order = ref [] in
  let current = Hashtbl.create 16 in
  (* name -> Bv *)
  let frames = ref [] in
  let started = ref false in
  let flush_frame () =
    if !started then
      frames := Hashtbl.fold (fun k v acc -> (k, v) :: acc) current [] :: !frames
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" then ()
      else if String.length line >= 4 && String.sub line 0 4 = "$var" then begin
        match String.split_on_char ' ' line with
        | "$var" :: _kind :: width :: code :: name :: _ ->
            let w = int_of_string width in
            Hashtbl.replace vars code (name, w);
            order := (name, w) :: !order;
            Hashtbl.replace current name (Bv.zero w)
        | _ -> raise (Vcd_error line)
      end
      else if line.[0] = '$' then ()
      else if line.[0] = '#' then begin
        flush_frame ();
        started := true
      end
      else if line.[0] = 'b' then begin
        match String.index_opt line ' ' with
        | None -> raise (Vcd_error line)
        | Some i ->
            let bits = String.sub line 1 (i - 1) in
            let code = String.sub line (i + 1) (String.length line - i - 1) in
            let name, w = Hashtbl.find vars code in
            Hashtbl.replace current name (Bv.extend_u (Bv.of_binary_string bits) w)
      end
      else if line.[0] = '0' || line.[0] = '1' then begin
        let code = String.sub line 1 (String.length line - 1) in
        let name, w = Hashtbl.find vars code in
        Hashtbl.replace current name
          (Bv.extend_u (Bv.of_bool (line.[0] = '1')) w)
      end
      else ())
    lines;
  flush_frame ();
  { signals = List.rev !order; frames = Array.of_list (List.rev !frames) }

let read_file path : wave = Sic_obs.Artifact.load path read_string
