(** Coverage removal (§5.3).

    FPGA instrumentation is expensive in LUTs and compile time, so cover
    points already exercised by (cheap) software simulation are removed
    before building the FPGA image. Because every backend emits the same
    counts format, the removal set is just the merged software counts
    filtered by a threshold. *)

open Sic_ir

type result = {
  circuit : Circuit.t;
  removed : string list;
  kept : string list;
}

(** Remove covers whose merged count reaches [threshold] (the paper uses
    10). Cover names in [counts] refer to the flattened circuit. *)
let remove_covered ?(threshold = 10) (counts : Counts.t) (c : Circuit.t) : result =
  let removed = ref [] and kept = ref [] in
  let strip (m : Circuit.modul) =
    let body =
      Stmt.map_concat
        (fun s ->
          match s with
          | Stmt.Cover { name; _ } ->
              if Counts.get counts name >= threshold then begin
                removed := name :: !removed;
                []
              end
              else begin
                kept := name :: !kept;
                [ s ]
              end
          | s -> [ s ])
        m.Circuit.body
    in
    { m with Circuit.body }
  in
  (* force the traversal before reading the accumulators *)
  let circuit = { c with Circuit.modules = List.map strip c.Circuit.modules } in
  { circuit; removed = List.rev !removed; kept = List.rev !kept }

(** {1 Waivers (coverage exclusions)}

    Production coverage flows let verification engineers waive points that
    are known-unreachable or out of scope (e.g. debug-only logic). A
    waiver is a pattern over hierarchical cover names: [*] matches any
    substring (including the empty one), [?] matches exactly one
    character, everything else is literal. *)

(** [matches ~pattern name]: glob with [*] and [?] as the metacharacters. *)
let matches ~pattern name =
  let np = String.length pattern and nn = String.length name in
  (* recursion over (pattern index, name index) *)
  let rec go pi ni =
    if pi = np then ni = nn
    else if pattern.[pi] = '*' then go (pi + 1) ni || (ni < nn && go pi (ni + 1))
    else ni < nn && (pattern.[pi] = '?' || pattern.[pi] = name.[ni]) && go (pi + 1) (ni + 1)
  in
  go 0 0

(** Remove every cover whose name matches one of the waiver patterns. *)
let remove_matching ~(patterns : string list) (c : Circuit.t) : result =
  let removed = ref [] and kept = ref [] in
  let strip (m : Circuit.modul) =
    let body =
      Stmt.map_concat
        (fun s ->
          match s with
          | Stmt.Cover { name; _ } ->
              if List.exists (fun pattern -> matches ~pattern name) patterns then begin
                removed := name :: !removed;
                []
              end
              else begin
                kept := name :: !kept;
                [ s ]
              end
          | s -> [ s ])
        m.Circuit.body
    in
    { m with Circuit.body }
  in
  let circuit = { c with Circuit.modules = List.map strip c.Circuit.modules } in
  { circuit; removed = List.rev !removed; kept = List.rev !kept }

(** Waiver file format: one pattern per line, [#] comments, blank lines
    ignored. *)
let parse_waivers (s : string) : string list =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some line)

let load_waivers path : string list = Sic_obs.Artifact.load path parse_waivers

(** Restrict a counts map to the covers a circuit still contains (useful
    after removal, for reporting). *)
let restrict (c : Circuit.t) (counts : Counts.t) : Counts.t =
  let out = Counts.create () in
  List.iter
    (fun m ->
      List.iter (fun name -> Counts.set out name (Counts.get counts name)) (Circuit.covers_of m))
    c.Circuit.modules;
  out
