(** The on-disk artifact discipline shared by every versioned file format
    (see artifact.mli). *)

exception Bad_format of string

let bad_format lineno fmt =
  Printf.ksprintf (fun m -> raise (Bad_format (Printf.sprintf "line %d: %s" lineno m))) fmt

(* Calls [f lineno line] on every physical line, numbered from 1, without
   building the list of lines first. *)
let iter_lines f s =
  let n = String.length s in
  let rec go lineno start =
    if start <= n then begin
      let stop = try String.index_from s start '\n' with Not_found -> n in
      f lineno (String.sub s start (stop - start));
      go (lineno + 1) (stop + 1)
    end
  in
  go 1 0

(* ------------------------------------------------------------------ *)
(* Text formats                                                         *)
(* ------------------------------------------------------------------ *)

(* "# sic coverage counts v1" -> "# sic coverage counts": every line of the
   family is a header, and only the exact one is understood *)
let family header = String.sub header 0 (String.rindex header ' ')

let check_header ~header ~family lineno line =
  String.starts_with ~prefix:family line
  && (line = header
     || bad_format lineno "unsupported format %S (this reader understands %S)" line header)

let is_header ~header lineno line = check_header ~header ~family:(family header) lineno line

let lines ~header f s =
  let family = family header in
  let saw_header = ref false in
  iter_lines
    (fun lineno line ->
      let line = String.trim line in
      if check_header ~header ~family lineno line then saw_header := true
      else if line <> "" && line.[0] <> '#' then f lineno line)
    s;
  !saw_header

(* ------------------------------------------------------------------ *)
(* NDJSON formats                                                       *)
(* ------------------------------------------------------------------ *)

let meta ~format ~version fields =
  Json.Obj
    (("type", Json.String "meta")
    :: ("format", Json.String format)
    :: ("version", Json.Int version)
    :: fields)

let check_meta ~format ~version lineno m =
  if Json.string_member "type" m <> Some "meta" then
    bad_format lineno "expected a %s meta record" format;
  (match Json.string_member "format" m with
  | Some f when f = format -> ()
  | Some f -> bad_format lineno "format %S, this reader understands %S" f format
  | None -> bad_format lineno "%s meta record lacks a format" format);
  match Json.int_member "version" m with
  | Some v when v = version -> ()
  | Some v -> bad_format lineno "%s version %d, this reader understands version %d" format v version
  | None -> bad_format lineno "%s meta record lacks a version" format

(* Each record is decoded as soon as it is parsed: holding every parsed
   [Json.t] until the end would promote them all to the major heap, which
   costs more than the parse on a large manifest. *)
let records ~format ~version f s =
  let meta = ref None and rev = ref [] in
  iter_lines
    (fun lineno line ->
      if String.trim line <> "" then begin
        let j = try Json.parse line with Json.Parse_error m -> bad_format lineno "%s" m in
        match !meta with
        | None ->
            check_meta ~format ~version lineno j;
            meta := Some j
        | Some _ -> rev := f lineno j :: !rev
      end)
    s;
  match !meta with
  | None -> bad_format 1 "missing %s meta record" format
  | Some m -> (m, List.rev !rev)

let append path j =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string j ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

(* distinguishes concurrent saves of one path from threads of one process *)
let tmp_seq = Atomic.make 0

let save path text =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d.%d.tmp" (Filename.basename path) (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  match
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let load path parse =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  try parse text with Bad_format m -> raise (Bad_format (path ^ ": " ^ m))
