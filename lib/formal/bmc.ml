(** Bounded model checking for cover-trace generation — the SymbiYosys
    analogue (§3.4, §5.5).

    Given an instrumented circuit, [check_covers] searches, per cover
    point, for an input sequence (within the bound) that makes the cover
    predicate true; or reports that none exists within the bound. The
    paper uses exactly this to (a) generate inputs maximizing any
    automated coverage metric and (b) find dead cover points — e.g. the
    unreachable write path of riscv-mini's read-only instruction cache,
    and over-approximated FSM transitions. *)

open Sic_ir
module Bv = Sic_bv.Bv
module Obs = Sic_obs.Obs

type verdict =
  | Reachable of Sic_sim.Replay.trace  (** witness trace, replayable on any backend *)
  | Unreachable_within_bound

type report = {
  bound : int;
  results : (string * verdict) list;
  solver_stats : string;
}

let trace_of_model (u : Unroll.t) ~(upto : int) : Sic_sim.Replay.trace =
  let input_names =
    "reset"
    :: (List.map fst u.Unroll.input_bits
       |> List.filter (fun n -> n <> "reset" && n <> "clock")
       |> List.sort String.compare)
  in
  let frames =
    Array.init upto (fun t ->
        Array.of_list
          (List.map
             (fun n -> Gate.model_value u.Unroll.ctx (List.assoc n u.Unroll.input_bits).(t))
             input_names))
  in
  { Sic_sim.Replay.input_names; frames }

(** Unroll for [covers] (their cone of influence; everything when
    [None]), traced as a [bmc.unroll] span that records the CNF's size. *)
let unroll ?covers ?free_init ~reset_cycles circuit ~bound =
  let span = Obs.span_open () in
  let u = Unroll.unroll ?covers ?free_init ~reset_cycles circuit ~bound in
  let solver = Gate.solver u.Unroll.ctx in
  Obs.span_close span ~name:"bmc.unroll"
    [
      ("depth", Obs.Int bound);
      ("vars", Obs.Int (Sat.nb_vars solver));
      ("clauses", Obs.Int (Sat.nb_clauses solver));
      ("regs_in_cone", Obs.Int u.Unroll.regs_in_cone);
    ];
  u

(** Every input bit of every frame that is a variable, not a constant. *)
let input_vars (u : Unroll.t) =
  let tt = abs (Gate.tt u.Unroll.ctx) in
  List.concat_map
    (fun (_, frames) ->
      Array.fold_left
        (fun acc bits ->
          Array.fold_left (fun acc l -> if abs l = tt then acc else abs l :: acc) acc bits)
        [] frames)
    u.Unroll.input_bits

(** Check reachability of each cover statement within [bound] cycles.
    [covers] restricts the search to a subset of cover names (default:
    all), and the encoding to their cone of influence. A single-point
    query branches on the input bits first: every other variable is a
    function of them and of the reset state. Queries over several points
    keep plain VSIDS, which serves them better. *)
let check_covers ?(bound = 40) ?covers ?(reset_cycles = 1) (circuit : Circuit.t) : report =
  let u = unroll ?covers ~reset_cycles circuit ~bound in
  let solver = Gate.solver u.Unroll.ctx in
  let selected =
    match covers with
    | None -> List.map fst u.Unroll.cover_lits
    | Some names -> names
  in
  (match covers with Some [ _ ] -> Sat.prefer solver (input_vars u) | _ -> ());
  let results =
    List.map
      (fun name ->
        match List.assoc_opt name u.Unroll.cover_lits with
        | None -> (name, Unreachable_within_bound)
        | Some lits ->
            (* one activation literal per cover: g -> OR of per-cycle preds *)
            let g = Gate.fresh u.Unroll.ctx in
            Gate.clause u.Unroll.ctx (-g :: Array.to_list lits);
            let span = Obs.span_open () in
            let decisions = Sat.decisions solver
            and conflicts = Sat.conflicts solver
            and propagations = Sat.propagations solver in
            let verdict =
              match Sat.solve ~assumptions:[ g ] solver with
              | Sat.Sat ->
                  (* find the earliest satisfied cycle to truncate the trace *)
                  let upto = ref bound in
                  Array.iteri
                    (fun t l ->
                      if !upto = bound then begin
                        let v = Sat.value solver (abs l) in
                        let v = if l > 0 then v else not v in
                        if v then upto := t + 1
                      end)
                    lits;
                  Reachable (trace_of_model u ~upto:!upto)
              | Sat.Unsat -> Unreachable_within_bound
            in
            Obs.span_close span ~name:"bmc.solve"
              [
                ("cover", Obs.Str name);
                ("depth", Obs.Int bound);
                ( "result",
                  Obs.Str
                    (match verdict with
                    | Reachable _ -> "sat"
                    | Unreachable_within_bound -> "unsat") );
                ("decisions", Obs.Int (Sat.decisions solver - decisions));
                ("conflicts", Obs.Int (Sat.conflicts solver - conflicts));
                ("propagations", Obs.Int (Sat.propagations solver - propagations));
              ];
            (name, verdict))
      selected
  in
  { bound; results; solver_stats = Sat.stats solver }

let unreachable (r : report) =
  List.filter_map
    (fun (n, v) ->
      match v with Unreachable_within_bound -> Some n | Reachable _ -> None)
    r.results

let reachable (r : report) =
  List.filter_map
    (fun (n, v) -> match v with Reachable t -> Some (n, t) | Unreachable_within_bound -> None)
    r.results

(** {1 k-induction}

    BMC only ever says "unreachable {i within the bound}". Temporal
    induction strengthens that to "unreachable, period": if (base case)
    the predicate cannot fire within [k] cycles of the initial state, and
    (inductive step) no [k+1]-cycle path from an {i arbitrary} state with
    the predicate false for its first [k] cycles can make it fire on the
    last, then no reachable state ever fires it. A natural extension the
    paper leaves to the formal tool; here it is built on the same
    unrolling. *)

type induction_verdict =
  | Dead_forever  (** proved unreachable at every cycle *)
  | Cex_within_bound of Sic_sim.Replay.trace  (** base case fails: reachable *)
  | Unknown  (** induction failed at this depth; try a larger [k] *)

let prove_unreachable ?(k = 4) ?covers ?(reset_cycles = 1) (circuit : Circuit.t) :
    (string * induction_verdict) list =
  (* base case: plain BMC from the power-on state *)
  let base = check_covers ~bound:(k + 1) ?covers ~reset_cycles circuit in
  (* inductive step: arbitrary start state, reset held low throughout *)
  let ind = unroll ?covers ~free_init:true ~reset_cycles:0 circuit ~bound:(k + 1) in
  List.map
    (fun (name, verdict) ->
      match verdict with
      | Reachable trace -> (name, Cex_within_bound trace)
      | Unreachable_within_bound -> (
          match List.assoc_opt name ind.Unroll.cover_lits with
          | None -> (name, Unknown)
          | Some lits ->
              (* assume !pred for cycles 0..k-1, check pred at cycle k *)
              let assumptions =
                lits.(k) :: List.init k (fun t -> -lits.(t))
              in
              (match
                 Obs.span "bmc.induction_solve"
                   ~args:[ ("cover", Obs.Str name); ("depth", Obs.Int k) ]
                   (fun () -> Sat.solve ~assumptions (Gate.solver ind.Unroll.ctx))
               with
              | Sat.Unsat -> (name, Dead_forever)
              | Sat.Sat -> (name, Unknown))))
    base.results

let render_induction (results : (string * induction_verdict) list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "=== k-induction on cover points ===\n";
  List.iter
    (fun (n, v) ->
      match v with
      | Dead_forever -> Buffer.add_string buf (Printf.sprintf "  %-48s DEAD (proved by induction)\n" n)
      | Cex_within_bound t ->
          Buffer.add_string buf
            (Printf.sprintf "  %-48s reachable in %d cycles\n" n (Sic_sim.Replay.cycles t))
      | Unknown -> Buffer.add_string buf (Printf.sprintf "  %-48s unknown at this depth\n" n))
    results;
  Buffer.contents buf

let render (r : report) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "=== formal cover trace generation (bound %d) ===\n" r.bound);
  List.iter
    (fun (n, v) ->
      match v with
      | Reachable t ->
          Buffer.add_string buf
            (Printf.sprintf "  %-48s reachable in %d cycles\n" n
               (Sic_sim.Replay.cycles t))
      | Unreachable_within_bound ->
          Buffer.add_string buf (Printf.sprintf "  %-48s UNREACHABLE within bound\n" n))
    r.results;
  Buffer.add_string buf (Printf.sprintf "solver: %s\n" r.solver_stats);
  Buffer.contents buf
