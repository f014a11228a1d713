(** The backend interface of §3.

    A backend simulates any synchronous low-form circuit and implements the
    one extra primitive, [cover]: sample a 1-bit signal at the rising clock
    edge and increment a saturating counter when it is true. At any point
    the accumulated counts are available as a {!Sic_coverage.Counts.t} map
    from cover name to count — the same format for every backend, which is
    what makes reports, merging, removal and fuzz feedback
    backend-agnostic. *)

open Sic_ir
module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Obs = Sic_obs.Obs

type t = {
  backend_name : string;
  circuit : Circuit.t;  (** the lowered circuit actually simulated *)
  poke : string -> Bv.t -> unit;  (** drive an input port *)
  peek : string -> Bv.t;  (** observe any named signal *)
  step : int -> unit;  (** advance N rising clock edges *)
  counts : unit -> Counts.t;  (** saturating cover counters, by name *)
  cycles : unit -> int;
  finished : unit -> bool;  (** a [stop] statement fired *)
  restore : unit -> unit;
      (** return to power-on state, exactly as built: register, memory
          and input values, cover counters, [cycles () = 0],
          [finished () = false]. Engines blit a snapshot taken at build
          time instead of rebuilding, so one engine can run many
          from-reset executions (the fuzz harness does). An engine
          profiler's accumulated hit and time counts are not reset: they
          keep accumulating across restores. *)
}

exception Sim_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

(** Where [printf] statements write; tests may redirect it. This is the
    single runtime text sink shared with the telemetry layer — it {e is}
    {!Sic_obs.Obs.sink}, so swapping either ref captures or silences all
    runtime output in one place. *)
let print_sink : (string -> unit) ref = Obs.sink

(** Saturating counter ceiling shared by the software backends: counts are
    exact up to [2^62 - 1], far beyond any simulation length, but the type
    is still "saturating" as §3 requires. *)
let count_saturate = max_int

let sat_incr c = if c >= count_saturate then c else c + 1

(** [blit_ints src dst] copies [src] over the prefix of [dst]: the
    engines' [restore]. A loop typed [int] stores without the write
    barrier that [Array.blit] pays per element on a major-heap array. *)
let blit_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

(** How often (in cycles) an instrumented backend samples its throughput
    gauges when telemetry is on. *)
let sample_interval = ref 1000

(** Wrap a backend so that, while telemetry is on ({!Sic_obs.Obs.on}),
    [step] emits [sim.<backend>.cycles_per_sec] and
    [sim.<backend>.covers_hit] gauges every {!sample_interval} cycles. When
    telemetry is off the wrapper is a single flag check per [step] call —
    the per-cycle hot path is untouched. *)
let with_telemetry (b : t) : t =
  let last_cycles = ref (b.cycles ()) in
  let last_t = ref nan in
  let gauge_name suffix = "sim." ^ b.backend_name ^ "." ^ suffix in
  let sample () =
    let now = Obs.now_us () in
    let cycles = b.cycles () in
    (if not (Float.is_nan !last_t) then begin
       let dt = (now -. !last_t) /. 1e6 in
       let dc = cycles - !last_cycles in
       if dt > 0. && dc > 0 then
         Obs.gauge (gauge_name "cycles_per_sec") (float_of_int dc /. dt)
     end);
    let hit =
      List.fold_left
        (fun acc (_, c) -> if c > 0 then acc + 1 else acc)
        0
        (Counts.to_sorted_list (b.counts ()))
    in
    Obs.gauge (gauge_name "covers_hit") (float_of_int hit);
    last_t := now;
    last_cycles := cycles
  in
  let step n =
    if not (Obs.on ()) then b.step n
    else begin
      if Float.is_nan !last_t then sample ();
      let remaining = ref n in
      while !remaining > 0 do
        let due = !sample_interval - (b.cycles () - !last_cycles) in
        let k = max 1 (min !remaining due) in
        b.step k;
        remaining := !remaining - k;
        if b.cycles () - !last_cycles >= !sample_interval then sample ()
      done
    end
  in
  (* cycles drop back to 0: re-anchor as a fresh wrapper would be *)
  let restore () =
    b.restore ();
    last_cycles := b.cycles ();
    last_t := nan
  in
  { b with step; restore }

(** Wrap a backend so [f ~cycles ~covered] fires every [every] simulated
    cycles — the coverage-convergence sampling hook behind
    {!Sic_coverage.Timeline}. [covered] is the number of cover points hit
    so far. When [every <= 0] the backend is returned {e unchanged} — no
    wrapper, no per-step check — so the disabled path stays free (the §5
    overhead discipline). Unlike {!with_telemetry} this does not consult
    {!Sic_obs.Obs.on}: timelines are coverage data, not telemetry. *)
let with_sampler ~every f (b : t) : t =
  if every <= 0 then b
  else begin
    let next = ref (b.cycles () + every) in
    let sample () =
      f ~cycles:(b.cycles ()) ~covered:(Counts.covered_points (b.counts ()))
    in
    let step n =
      let remaining = ref n in
      while !remaining > 0 do
        let due = !next - b.cycles () in
        let k = max 1 (min !remaining due) in
        b.step k;
        remaining := !remaining - k;
        if b.cycles () >= !next then begin
          sample ();
          next := b.cycles () + every
        end
      done
    in
    let restore () =
      b.restore ();
      next := b.cycles () + every
    in
    { b with step; restore }
  end

(** Hold reset high for [cycles] (default 1) clock edges, then release. *)
let reset_sequence ?(cycles = 1) (b : t) =
  b.poke "reset" (Bv.one 1);
  b.step cycles;
  b.poke "reset" (Bv.zero 1)

(** Input ports of the simulated circuit, except clock and reset. *)
let data_inputs (b : t) =
  let m = Circuit.main b.circuit in
  List.filter_map
    (fun (p : Circuit.port) ->
      match p.Circuit.dir with
      | Circuit.Input
        when p.Circuit.port_name <> "clock" && p.Circuit.port_name <> "reset" ->
          Some (p.Circuit.port_name, p.Circuit.port_ty)
      | Circuit.Input | Circuit.Output -> None)
    m.Circuit.ports

(** The default random workload shared by [sic cover], [sic profile] and
    the fleet's simulation jobs: drive every data input with a fresh
    random value, then step, [cycles] times. [bits] supplies randomness
    30 bits at a time (see {!Sic_bv.Bv.random}); pass a seeded
    [Sic_fuzz.Rng.bits30] for reproducibility. *)
let random_stimulus ~(bits : unit -> int) ~cycles (b : t) =
  let inputs = data_inputs b in
  for _ = 1 to cycles do
    List.iter (fun (n, ty) -> b.poke n (Bv.random ~width:(Ty.width ty) bits)) inputs;
    b.step 1
  done

let outputs (b : t) =
  let m = Circuit.main b.circuit in
  List.filter_map
    (fun (p : Circuit.port) ->
      match p.Circuit.dir with
      | Circuit.Output -> Some (p.Circuit.port_name, p.Circuit.port_ty)
      | Circuit.Input -> None)
    m.Circuit.ports

(** Shared preparation: lower to low form if needed and index the main
    module's contents the way every software backend wants them. *)
module Prep = struct
  type mem_state = {
    mem : Stmt.mem;
    data : Bv.t array;
    mutable latched_addrs : (string * Bv.t) list;
        (** per sync read port: address captured at the last clock edge *)
  }

  type reg_info = { reg_name : string; reg_ty : Ty.t; reset : (Expr.t * Expr.t) option }

  type prepared = {
    low : Circuit.t;
    main : Circuit.modul;
    env : (string, Ty.t) Hashtbl.t;
    drivers : (string, Expr.t) Hashtbl.t;  (** sink -> driving expression *)
    node_defs : (string, Expr.t) Hashtbl.t;
    regs : reg_info list;
    mems : (string * mem_state) list;
    covers : (string * Expr.t) list;  (** in declaration order *)
    cover_values : (string * Expr.t * Expr.t * int) list;
        (** name, signal, enable, signal width *)
    stops : (string * Expr.t) list;
    prints : (Expr.t * string * Expr.t list) list;
        (** condition, message with [%d] placeholders, arguments *)
    input_names : (string, int) Hashtbl.t;  (** name -> width *)
    infos : (string, Info.t) Hashtbl.t;
        (** defined name -> the defining statement's source info; the
            provenance half of the engine profiler (tape index -> root
            statement name -> [file:line]) *)
  }

  (** Substitute the argument values into a printf message ([%d] decimal,
      [%x] hexadecimal, [%b] binary, [%%] literal). Shared by backends so
      their output is identical. *)
  let format_print (message : string) (args : Bv.t list) : string =
    let buf = Buffer.create (String.length message + 16) in
    let args = ref args in
    let take () =
      match !args with
      | [] -> None
      | a :: rest ->
          args := rest;
          Some a
    in
    let n = String.length message in
    let i = ref 0 in
    while !i < n do
      (if message.[!i] = '%' && !i + 1 < n then begin
         (match message.[!i + 1] with
         | 'd' -> (
             match take () with
             | Some v -> Buffer.add_string buf (Bv.to_decimal_string v)
             | None -> Buffer.add_string buf "%d")
         | 'x' -> (
             match take () with
             | Some v -> Buffer.add_string buf (Bv.to_hex_string v)
             | None -> Buffer.add_string buf "%x")
         | 'b' -> (
             match take () with
             | Some v -> Buffer.add_string buf (Bv.to_binary_string v)
             | None -> Buffer.add_string buf "%b")
         | '%' -> Buffer.add_char buf '%'
         | c ->
             Buffer.add_char buf '%';
             Buffer.add_char buf c);
         incr i
       end
       else Buffer.add_char buf message.[!i]);
      incr i
    done;
    Buffer.contents buf

  (** Register names as a set — both tape engines need to know which
      driven sinks are sequential (their drivers become next-value
      computations, not combinational instructions). *)
  let reg_name_set (p : prepared) : (string, unit) Hashtbl.t =
    let set = Hashtbl.create 32 in
    List.iter (fun (r : reg_info) -> Hashtbl.replace set r.reg_name ()) p.regs;
    set

  (** Names of sync-read data ports ([mem.port.data] with latency > 0) —
      state updated at the clock edge, never computed by the tape. *)
  let sync_read_data_names (p : prepared) : (string, unit) Hashtbl.t =
    let set = Hashtbl.create 8 in
    List.iter
      (fun (mname, ms) ->
        if ms.mem.Stmt.mem_read_latency > 0 then
          List.iter
            (fun { Stmt.rp_name } ->
              Hashtbl.replace set (mname ^ "." ^ rp_name ^ ".data") ())
            ms.mem.Stmt.mem_readers)
      p.mems;
    set

  let prepare (c : Circuit.t) : prepared =
    let low = if Sic_passes.Compile.is_low_form c then c else Sic_passes.Compile.lower c in
    let main = Circuit.main low in
    let env = Circuit.build_env main in
    let ty_of = Circuit.lookup_of env in
    let drivers = Hashtbl.create 256 in
    let node_defs = Hashtbl.create 256 in
    let regs = ref [] in
    let mems = ref [] in
    let covers = ref [] in
    let cover_values = ref [] in
    let stops = ref [] in
    let prints = ref [] in
    let infos = Hashtbl.create 256 in
    Stmt.iter
      (fun s ->
        (match Stmt.def_name s with
        | Some n -> Hashtbl.replace infos n (Stmt.info s)
        | None -> ());
        match s with
        | Stmt.Node { name; expr; _ } -> Hashtbl.replace node_defs name expr
        | Stmt.Connect { loc; expr; _ } -> Hashtbl.replace drivers loc expr
        | Stmt.Reg { name; ty; reset; _ } ->
            regs := { reg_name = name; reg_ty = ty; reset } :: !regs
        | Stmt.Mem { mem; _ } ->
            let w = Ty.width mem.Stmt.mem_data in
            mems :=
              ( mem.Stmt.mem_name,
                {
                  mem;
                  data =
                    (match mem.Stmt.mem_init with
                    | Some init ->
                        Array.init mem.Stmt.mem_depth (fun i ->
                            if i < Array.length init then Bv.extend_u init.(i) w else Bv.zero w)
                    | None -> Array.make mem.Stmt.mem_depth (Bv.zero w));
                  latched_addrs =
                    (if mem.Stmt.mem_read_latency > 0 then
                       List.map
                         (fun { Stmt.rp_name } ->
                           (rp_name, Bv.zero (Ty.clog2 mem.Stmt.mem_depth)))
                         mem.Stmt.mem_readers
                     else []);
                } )
              :: !mems
        | Stmt.Cover { name; pred; _ } -> covers := (name, pred) :: !covers
        | Stmt.CoverValues { name; signal; en; _ } ->
            cover_values := (name, signal, en, Ty.width (Expr.type_of ty_of signal)) :: !cover_values
        | Stmt.Stop { name; cond; _ } -> stops := (name, cond) :: !stops
        | Stmt.Print { cond; message; args; _ } -> prints := (cond, message, args) :: !prints
        | Stmt.Wire _ | Stmt.Inst _ | Stmt.When _ -> ())
      main.Circuit.body;
    let input_names = Hashtbl.create 16 in
    List.iter
      (fun (p : Circuit.port) ->
        match p.Circuit.dir with
        | Circuit.Input -> Hashtbl.replace input_names p.Circuit.port_name (Ty.width p.Circuit.port_ty)
        | Circuit.Output -> ())
      main.Circuit.ports;
    {
      low;
      main;
      env;
      drivers;
      node_defs;
      regs = List.rev !regs;
      mems = List.rev !mems;
      covers = List.rev !covers;
      cover_values = List.rev !cover_values;
      stops = List.rev !stops;
      prints = List.rev !prints;
      input_names;
      infos;
    }
end
