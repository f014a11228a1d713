(** Minimal JSON printer + recursive-descent parser (see json.mli). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest decimal representation that round-trips; always contains a
   '.' or exponent so the parser reads it back as a Float, never an Int.
   JSON has no nan or infinity, so a non-finite value prints as null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_buffer buf (v : t) =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf item)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail c fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at offset %d: %s" c.pos m))) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c "expected %c, found %c" ch x
  | None -> fail c "expected %c, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c "invalid literal"

(* encode a unicode codepoint as UTF-8 *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | None -> fail c "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
                let hex = String.sub c.src c.pos 4 in
                c.pos <- c.pos + 4;
                let cp =
                  try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape %s" hex
                in
                add_utf8 buf cp
            | e -> fail c "bad escape \\%c" e));
        go ()
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while match peek c with Some ch when is_num_char ch -> true | _ -> false do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  if s = "" then fail c "expected a number";
  let is_float = String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s in
  if is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "bad number %s" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        (* integer overflow: fall back to float *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail c "bad number %s" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while peek c = Some ',' do
          advance c;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | Some _ -> parse_number c

let parse (src : string) : t =
  let c = { src; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length src then fail c "trailing garbage";
  v

let member key (v : t) =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

(* typed field accessors, for consumers that walk records (the coverage
   database manifest, the profile checkers) without pattern-matching
   boilerplate at every call site *)

let string_member key v = match member key v with Some (String s) -> Some s | _ -> None

let int_member key v = match member key v with Some (Int i) -> Some i | _ -> None

let float_member key v =
  match member key v with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let bool_member key v = match member key v with Some (Bool b) -> Some b | _ -> None

let rec equal (a : t) (b : t) =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | _ -> false
