(** Branch and line coverage (§4.1).

    Instrumentation runs on the high-form IR, *before* when-lowering: a
    [cover] with predicate 1 is prepended to every branch arm, and the
    lowering pass then conjoins the arm's path predicate — exactly the
    "dominating branch condition becomes an enable signal" observation the
    paper builds on. One extra cover in the module root counts cycles for
    the statements outside any branch.

    The metadata maps each cover to the source lines dominated by its arm;
    the report generator joins it with the counts map from any backend. *)

open Sic_ir
module Pass = Sic_passes.Pass

let pass_name = "line-coverage"

type arm = Then | Else | Root

type branch = {
  cover_name : string;  (** name as emitted (module-unique) *)
  module_name : string;
  arm : arm;
  branch_info : Info.t;  (** locator of the [when] itself *)
  lines : (string * int) list;  (** (file, line) of statements in the arm *)
}

type db = branch list

(* source lines of the statements directly inside an arm (not nested arms —
   those belong to the inner branch's cover, giving exact line counts) *)
let direct_lines stmts =
  List.filter_map
    (fun s ->
      match Stmt.info s with
      | Info.Pos { file; line; _ } -> Some (file, line)
      | Info.Unknown -> None)
    stmts
  |> List.sort_uniq compare

let instrument_module (db : branch list ref) (m : Circuit.modul) : Circuit.modul =
  let ns = Namespace.of_module m in
  let record cover_name arm branch_info lines =
    db := { cover_name; module_name = m.Circuit.module_name; arm; branch_info; lines } :: !db
  in
  let fresh () = Namespace.fresh ns (Printf.sprintf "l_%s" m.Circuit.module_name) in
  let rec instr stmts =
    List.map
      (fun (s : Stmt.t) ->
        match s with
        | Stmt.When { cond; then_; else_; info } ->
            let tname = fresh () in
            record tname Then info (direct_lines then_);
            let then_ =
              Stmt.Cover { name = tname; pred = Expr.true_; info } :: instr then_
            in
            let else_ =
              (* an empty else arm gets no cover: there is no code to cover
                 and Verilog line coverage behaves the same way *)
              if else_ = [] then []
              else begin
                let ename = fresh () in
                record ename Else info (direct_lines else_);
                Stmt.Cover { name = ename; pred = Expr.true_; info } :: instr else_
              end
            in
            Stmt.When { cond; then_; else_; info }
        | Stmt.Node _ | Stmt.Wire _ | Stmt.Reg _ | Stmt.Mem _ | Stmt.Inst _
        | Stmt.Connect _ | Stmt.Cover _ | Stmt.CoverValues _ | Stmt.Stop _
        | Stmt.Print _ -> s)
      stmts
  in
  let body = instr m.Circuit.body in
  let rname = fresh () in
  record rname Root Info.unknown (direct_lines m.Circuit.body);
  { m with Circuit.body = Stmt.Cover { name = rname; pred = Expr.true_; info = Info.unknown } :: body }

(** Instrument every module; returns the circuit and the metadata db. *)
let instrument (c : Circuit.t) : Circuit.t * db =
  let db = ref [] in
  let modules = List.map (instrument_module db) c.Circuit.modules in
  ({ c with Circuit.modules }, List.rev !db)

(** Pass-shaped wrapper storing the metadata in [db_out]. *)
let pass (db_out : db ref) =
  Pass.make pass_name (fun c ->
      let c, db = instrument c in
      db_out := db;
      c)

(** {1 Report generation} *)

(* Counts arrive keyed by full hierarchical names ("core.alu.l_Alu_0"); the
   metadata is keyed by module-unique local names ("l_Alu_0"). Local names
   embed the module name, so matching on the last path segment is
   unambiguous; counts from multiple instances of a module are summed. *)
let local_name full =
  match String.rindex_opt full '.' with
  | None -> full
  | Some i -> String.sub full (i + 1) (String.length full - i - 1)

type line_report = {
  per_line : ((string * int) * int) list;  (** (file, line) -> summed count *)
  lines_total : int;
  lines_covered : int;
  branches_total : int;
  branches_covered : int;
  never_covered : branch list;
}

let report (db : db) (counts : Counts.t) : line_report =
  (* sum counts per local cover name *)
  let by_local = Hashtbl.create 64 in
  Hashtbl.iter
    (fun full v ->
      let l = local_name full in
      Hashtbl.replace by_local l (Counts.sat_add v (Option.value ~default:0 (Hashtbl.find_opt by_local l))))
    counts;
  let count_of b = Option.value ~default:0 (Hashtbl.find_opt by_local b.cover_name) in
  (* only count branches that were actually simulated (present in counts) *)
  let present =
    List.filter (fun b -> Hashtbl.mem by_local b.cover_name) db
  in
  let line_counts = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let c = count_of b in
      List.iter
        (fun fl ->
          Hashtbl.replace line_counts fl
            (Counts.sat_add c (Option.value ~default:0 (Hashtbl.find_opt line_counts fl))))
        b.lines)
    present;
  let per_line =
    Hashtbl.fold (fun fl c acc -> (fl, c) :: acc) line_counts []
    |> List.sort (fun ((f1, l1), _) ((f2, l2), _) -> compare (f1, l1) (f2, l2))
  in
  let lines_covered = List.length (List.filter (fun (_, c) -> c > 0) per_line) in
  let branches_covered = List.length (List.filter (fun b -> count_of b > 0) present) in
  {
    per_line;
    lines_total = List.length per_line;
    lines_covered;
    branches_total = List.length present;
    branches_covered;
    never_covered = List.filter (fun b -> count_of b = 0) present;
  }

let arm_name = function Then -> "when" | Else -> "else" | Root -> "root"

(** Per-module rollup: for each module *type*, branches covered / total
    (instances summed), plus per-instance rows — the "per-instance
    coverage" view (instances are distinguished by their hierarchical
    cover names). *)
type module_summary = {
  summary_module : string;
  instances : (string * int * int) list;  (** path prefix, covered, total *)
  module_covered : int;
  module_total : int;
}

let module_summaries (db : db) (counts : Counts.t) : module_summary list =
  (* instance path of a full name = everything before the local segment *)
  let instance_of full =
    match String.rindex_opt full '.' with
    | None -> "(top)"
    | Some i -> String.sub full 0 i
  in
  let by_local = Hashtbl.create 64 in
  Hashtbl.iter
    (fun full v ->
      let l = local_name full in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_local l) in
      Hashtbl.replace by_local l ((instance_of full, v) :: cur))
    counts;
  let modules = List.sort_uniq String.compare (List.map (fun b -> b.module_name) db) in
  List.filter_map
    (fun md ->
      let branches = List.filter (fun b -> String.equal b.module_name md) db in
      (* collect (instance, covered?, present?) per branch occurrence *)
      let insts = Hashtbl.create 8 in
      List.iter
        (fun b ->
          List.iter
            (fun (inst, v) ->
              let c, t = Option.value ~default:(0, 0) (Hashtbl.find_opt insts inst) in
              Hashtbl.replace insts inst ((if v > 0 then c + 1 else c), t + 1))
            (Option.value ~default:[] (Hashtbl.find_opt by_local b.cover_name)))
        branches;
      if Hashtbl.length insts = 0 then None
      else begin
        let instances =
          Hashtbl.fold (fun i (c, t) acc -> (i, c, t) :: acc) insts []
          |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
        in
        let module_covered = List.fold_left (fun a (_, c, _) -> a + c) 0 instances in
        let module_total = List.fold_left (fun a (_, _, t) -> a + t) 0 instances in
        Some { summary_module = md; instances; module_covered; module_total }
      end)
    modules

let render_module_summary (db : db) (counts : Counts.t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "=== per-module line coverage ===\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %4d/%-4d (%.0f%%)\n" s.summary_module s.module_covered
           s.module_total
           (if s.module_total = 0 then 100.0
            else 100.0 *. float_of_int s.module_covered /. float_of_int s.module_total));
      if List.length s.instances > 1 then
        List.iter
          (fun (inst, c, t) ->
            Buffer.add_string buf (Printf.sprintf "    %-20s %4d/%-4d\n" inst c t))
          s.instances)
    (module_summaries db counts);
  Buffer.contents buf

(** ASCII report: summary plus per-source-file annotated lines, in the
    spirit of the paper's "bare-bones ASCII reports". *)
let render ?(with_sources = false) (db : db) (counts : Counts.t) : string =
  let r = report db counts in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "=== line coverage ===\n";
  Buffer.add_string buf
    (Printf.sprintf "branches: %d/%d covered (%.1f%%)\n" r.branches_covered
       r.branches_total
       (if r.branches_total = 0 then 100.0
        else 100.0 *. float_of_int r.branches_covered /. float_of_int r.branches_total));
  Buffer.add_string buf
    (Printf.sprintf "lines:    %d/%d covered (%.1f%%)\n" r.lines_covered r.lines_total
       (if r.lines_total = 0 then 100.0
        else 100.0 *. float_of_int r.lines_covered /. float_of_int r.lines_total));
  if r.never_covered <> [] then begin
    Buffer.add_string buf "never covered:\n";
    List.iter
      (fun b ->
        Buffer.add_string buf
          (Printf.sprintf "  %s %s in %s %s\n" (arm_name b.arm) b.cover_name b.module_name
             (Info.to_string b.branch_info)))
      r.never_covered
  end;
  (* group per file *)
  let files =
    List.sort_uniq String.compare (List.map (fun ((f, _), _) -> f) r.per_line)
  in
  List.iter
    (fun file ->
      Buffer.add_string buf (Printf.sprintf "--- %s ---\n" file);
      let source_lines =
        if with_sources && Sys.file_exists file then
          Some (Array.of_list (String.split_on_char '\n' (Sic_obs.Artifact.load file Fun.id)))
        else None
      in
      List.iter
        (fun ((f, line), c) ->
          if String.equal f file then
            let text =
              match source_lines with
              | Some arr when line - 1 >= 0 && line - 1 < Array.length arr ->
                  " | " ^ arr.(line - 1)
              | Some _ | None -> ""
            in
            Buffer.add_string buf (Printf.sprintf "%8d line %-5d%s\n" c line text))
        r.per_line)
    files;
  Buffer.contents buf
