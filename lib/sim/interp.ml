(** Tree-walking IR interpreter — the Treadle analogue: instant start-up,
    no compilation step, reference semantics. Values are computed lazily
    per cycle with memoization; combinational loops are detected. The
    cover primitive is implemented exactly as §3.1 describes for Treadle:
    like a [stop] whose condition, instead of ending the simulation,
    increments a counter. *)

open Sic_ir
module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Prep = Backend.Prep

(* The profiler's hit: one value change of a statement, sampled once per
   clock edge against the value at the previous edge (zero at power-on). *)
type hit = {
  stmt : string;
  mutable last : Bv.t;
  mutable count : int;
}

type state = {
  p : Prep.prepared;
  ty_of : string -> Ty.t;
  inputs : (string, Bv.t) Hashtbl.t;
  mutable reg_values : (string, Bv.t) Hashtbl.t;
  memo : (string, Bv.t) Hashtbl.t;
  in_progress : (string, unit) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  value_counters : (string, int array) Hashtbl.t;  (** cover-values arrays *)
  hits : hit array;  (** [create_profiled] only; empty otherwise *)
  mutable cycle : int;
  mutable stopped : bool;
}

let rec value (s : state) (name : string) : Bv.t =
  match Hashtbl.find_opt s.memo name with
  | Some v -> v
  | None ->
      if Hashtbl.mem s.in_progress name then
        Backend.error "combinational loop through %s" name;
      Hashtbl.replace s.in_progress name ();
      let v = compute s name in
      Hashtbl.remove s.in_progress name;
      Hashtbl.replace s.memo name v;
      v

and compute (s : state) (name : string) : Bv.t =
  match Hashtbl.find_opt s.inputs name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt s.reg_values name with
      | Some v -> v
      | None -> (
          (* memory read-port data? *)
          match mem_read_value s name with
          | Some v -> v
          | None -> (
              match Hashtbl.find_opt s.p.Prep.node_defs name with
              | Some e -> eval s e
              | None -> (
                  match Hashtbl.find_opt s.p.Prep.drivers name with
                  | Some e -> eval s e
                  | None ->
                      (* undriven wire or input left unpoked: zero *)
                      Bv.zero (Ty.width (s.ty_of name))))))

and mem_read_value (s : state) (name : string) : Bv.t option =
  let find () =
    List.find_map
      (fun (mname, ms) ->
        List.find_map
          (fun { Stmt.rp_name } ->
            if String.equal name (mname ^ "." ^ rp_name ^ ".data") then Some (mname, ms, rp_name)
            else None)
          ms.Prep.mem.Stmt.mem_readers)
      s.p.Prep.mems
  in
  match find () with
  | None -> None
  | Some (mname, ms, rp) ->
      let addr =
        if ms.Prep.mem.Stmt.mem_read_latency > 0 then List.assoc rp ms.Prep.latched_addrs
        else value s (mname ^ "." ^ rp ^ ".addr")
      in
      let i = Bv.to_int_trunc addr in
      if i < Array.length ms.Prep.data then Some ms.Prep.data.(i)
      else Some (Bv.zero (Ty.width ms.Prep.mem.Stmt.mem_data))

and eval (s : state) (e : Expr.t) : Bv.t =
  Eval.eval ~ty_of:s.ty_of ~value_of:(fun n -> value s n) e

let invalidate (s : state) =
  Hashtbl.reset s.memo;
  Hashtbl.reset s.in_progress

let clock_edge (s : state) =
  (* 1. sample hits / covers / cover-values / stops with pre-edge values *)
  Array.iter
    (fun h ->
      let v = value s h.stmt in
      if not (Bv.equal v h.last) then begin
        h.last <- v;
        h.count <- h.count + 1
      end)
    s.hits;
  List.iter
    (fun (name, pred) ->
      if Bv.to_bool (eval s pred) then
        Hashtbl.replace s.counters name
          (Backend.sat_incr (Option.value ~default:0 (Hashtbl.find_opt s.counters name))))
    s.p.Prep.covers;
  List.iter
    (fun (name, signal, en, _w) ->
      if Bv.to_bool (eval s en) then begin
        let arr = Hashtbl.find s.value_counters name in
        let v = Bv.to_int_trunc (eval s signal) in
        if v < Array.length arr then arr.(v) <- Backend.sat_incr arr.(v)
      end)
    s.p.Prep.cover_values;
  List.iter
    (fun (_name, cond) -> if Bv.to_bool (eval s cond) then s.stopped <- true)
    s.p.Prep.stops;
  List.iter
    (fun (cond, message, args) ->
      if Bv.to_bool (eval s cond) then
        !Backend.print_sink (Prep.format_print message (List.map (eval s) args)))
    s.p.Prep.prints;
  (* 2. compute register next-values (pre-edge) *)
  let next =
    List.map
      (fun (r : Prep.reg_info) ->
        let n = r.Prep.reg_name in
        let base =
          match Hashtbl.find_opt s.p.Prep.drivers n with
          | Some e -> eval s e
          | None -> value s n
        in
        let v =
          match r.Prep.reset with
          | Some (rst, init) -> if Bv.to_bool (eval s rst) then eval s init else base
          | None -> base
        in
        (n, v))
      s.p.Prep.regs
  in
  (* 3. memory writes and sync-read address latching (pre-edge values) *)
  let mem_updates =
    List.map
      (fun (mname, ms) ->
        let writes =
          List.filter_map
            (fun { Stmt.wp_name } ->
              let en = value s (mname ^ "." ^ wp_name ^ ".en") in
              if Bv.to_bool en then
                Some
                  ( Bv.to_int_trunc (value s (mname ^ "." ^ wp_name ^ ".addr")),
                    value s (mname ^ "." ^ wp_name ^ ".data") )
              else None)
            ms.Prep.mem.Stmt.mem_writers
        in
        let latched =
          List.map
            (fun (rp, _) -> (rp, value s (mname ^ "." ^ rp ^ ".addr")))
            ms.Prep.latched_addrs
        in
        (ms, writes, latched))
      s.p.Prep.mems
  in
  (* 4. commit *)
  List.iter (fun (n, v) -> Hashtbl.replace s.reg_values n v) next;
  List.iter
    (fun (ms, writes, latched) ->
      List.iter
        (fun (addr, data) -> if addr < Array.length ms.Prep.data then ms.Prep.data.(addr) <- data)
        writes;
      ms.Prep.latched_addrs <- latched)
    mem_updates;
  invalidate s;
  s.cycle <- s.cycle + 1

let make ~profile (c : Circuit.t) : Backend.t * hit array =
  let p = Prep.prepare c in
  let ty_of = Circuit.lookup_of p.Prep.env in
  let hits =
    if not profile then [||]
    else
      let regs = Prep.reg_name_set p in
      let add tbl acc =
        Hashtbl.fold (fun n _ acc -> if Hashtbl.mem regs n then acc else n :: acc) tbl acc
      in
      add p.Prep.drivers (add p.Prep.node_defs [])
      |> List.sort_uniq String.compare
      |> List.map (fun stmt -> { stmt; last = Bv.zero (Ty.width (ty_of stmt)); count = 0 })
      |> Array.of_list
  in
  let s =
    {
      p;
      ty_of;
      inputs = Hashtbl.create 16;
      reg_values = Hashtbl.create 64;
      memo = Hashtbl.create 256;
      in_progress = Hashtbl.create 256;
      counters = Hashtbl.create 64;
      value_counters = Hashtbl.create 4;
      hits;
      cycle = 0;
      stopped = false;
    }
  in
  (* registers power on to zero; reset is the designer's responsibility *)
  List.iter
    (fun (r : Prep.reg_info) ->
      Hashtbl.replace s.reg_values r.Prep.reg_name (Bv.zero (Ty.width r.Prep.reg_ty)))
    p.Prep.regs;
  List.iter
    (fun (name, _) -> Hashtbl.replace s.counters name 0)
    p.Prep.covers;
  List.iter
    (fun (name, _, _, w) ->
      Hashtbl.replace s.value_counters name (Array.make (1 lsl min w 20) 0))
    p.Prep.cover_values;
  (* the power-on state [restore] returns to; memory words are immutable
     values (writes replace them), so shallow copies suffice *)
  let regs0 = Hashtbl.copy s.reg_values in
  let mems0 =
    List.map (fun (_, ms) -> (ms, Array.copy ms.Prep.data, ms.Prep.latched_addrs)) p.Prep.mems
  in
  let restore () =
    s.reg_values <- Hashtbl.copy regs0;
    List.iter
      (fun (ms, data, latched) ->
        Array.blit data 0 ms.Prep.data 0 (Array.length data);
        ms.Prep.latched_addrs <- latched)
      mems0;
    Hashtbl.reset s.inputs;
    invalidate s;
    Hashtbl.filter_map_inplace (fun _ _ -> Some 0) s.counters;
    Hashtbl.iter (fun _ arr -> Array.fill arr 0 (Array.length arr) 0) s.value_counters;
    (* hit counts accumulate; the comparison baseline is power-on zero *)
    Array.iter (fun h -> h.last <- Bv.zero (Bv.width h.last)) hits;
    s.cycle <- 0;
    s.stopped <- false
  in
  let backend =
    Backend.with_telemetry
      {
        Backend.backend_name = "interp";
        circuit = p.Prep.low;
        poke =
          (fun name v ->
            match Hashtbl.find_opt p.Prep.input_names name with
            | None -> Backend.error "poke: %s is not an input" name
            | Some w ->
                Hashtbl.replace s.inputs name (Bv.extend_u v w);
                invalidate s);
        peek =
          (fun name ->
            if not (Hashtbl.mem p.Prep.env name) then
              Backend.error "peek: unknown signal %s" name;
            value s name);
        step =
          (fun n ->
            for _ = 1 to n do
              clock_edge s
            done);
        counts =
          (fun () ->
            let out = Counts.create () in
            Hashtbl.iter (fun k v -> Counts.set out k v) s.counters;
            Hashtbl.iter
              (fun k arr ->
                Array.iteri
                  (fun v c -> Counts.set out (Sic_coverage.Cover_values.value_key k v) c)
                  arr)
              s.value_counters;
            out);
        cycles = (fun () -> s.cycle);
        finished = (fun () -> s.stopped);
        restore;
      }
  in
  (backend, hits)

let create (c : Circuit.t) : Backend.t = fst (make ~profile:false c)

let create_profiled (c : Circuit.t) : Backend.t * (unit -> (string * int) list) =
  let b, hits = make ~profile:true c in
  (b, fun () -> Array.to_list (Array.map (fun h -> (h.stmt, h.count)) hits))
