(** Bounded unrolling of a low-form circuit into CNF.

    Every signal of every cycle becomes a vector of SAT literals; registers
    and memory words start at zero (the simulators' power-on state) and
    step through [reset ? init : driver] transitions, so a satisfying model
    corresponds exactly to a software-simulation run — BMC traces replay
    cycle-for-cycle on the interpreter, which the test suite exercises.

    Given [~covers], only the cone of influence of those cover points is
    encoded: the state and inputs their predicates can see, found by a
    static walk of the netlist before unrolling. Logic outside the cone
    cannot change whether a selected cover fires, so verdicts are those of
    the whole-circuit encoding; inputs outside the cone read 0 in every
    model. Without [~covers] the whole circuit is encoded. *)

open Sic_ir
module Bv = Sic_bv.Bv
module Prep = Sic_sim.Backend.Prep

exception Formal_error of string

type cycle_env = {
  values : (string, Gate.bits) Hashtbl.t;
  in_progress : (string, unit) Hashtbl.t;
}

type t = {
  ctx : Gate.ctx;
  p : Prep.prepared;
  bound : int;
  input_bits : (string * Gate.bits array) list;  (** per input: bits per cycle *)
  cover_lits : (string * int array) list;  (** per selected cover: literal per cycle *)
  regs_in_cone : int;  (** registers given next-state logic *)
}

(** [mem.port.data] name -> (memory, its state, read port) *)
let mem_data_ports (p : Prep.prepared) =
  let ports = Hashtbl.create 8 in
  List.iter
    (fun (mname, (ms : Prep.mem_state)) ->
      List.iter
        (fun { Stmt.rp_name } ->
          Hashtbl.replace ports (mname ^ "." ^ rp_name ^ ".data") (mname, ms, rp_name))
        ms.Prep.mem.Stmt.mem_readers)
    p.Prep.mems;
  ports

(** Every name the unrolling evaluates for [roots], and the memories they
    read, following the same edges as the per-cycle evaluator: a node or
    wire brings in its definition; a register its driver, reset condition
    and reset value; a memory data port its read address and the memory,
    which brings in every write port's enable, address and data and every
    latched sync-read address. *)
let cone (p : Prep.prepared) ports (roots : Expr.t list) : (string, unit) Hashtbl.t =
  let regs = Hashtbl.create 32 in
  List.iter (fun (r : Prep.reg_info) -> Hashtbl.replace regs r.Prep.reg_name r) p.Prep.regs;
  let seen = Hashtbl.create 256 in
  let mems = Hashtbl.create 8 in
  let work = Stack.create () in
  let push n = Stack.push n work in
  let push_expr e = List.iter push (Expr.references e) in
  List.iter push_expr roots;
  while not (Stack.is_empty work) do
    let n = Stack.pop work in
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      if not (Hashtbl.mem p.Prep.input_names n) then
        match Hashtbl.find_opt regs n with
        | Some r ->
            Option.iter push_expr (Hashtbl.find_opt p.Prep.drivers n);
            Option.iter
              (fun (rst, init) ->
                push_expr rst;
                push_expr init)
              r.Prep.reset
        | None -> (
            match Hashtbl.find_opt ports n with
            | Some (mname, (ms : Prep.mem_state), rp) ->
                push (mname ^ "." ^ rp ^ ".addr");
                if not (Hashtbl.mem mems mname) then begin
                  Hashtbl.replace mems mname ();
                  Hashtbl.replace seen mname ();
                  List.iter
                    (fun { Stmt.wp_name } ->
                      List.iter
                        (fun field -> push (mname ^ "." ^ wp_name ^ field))
                        [ ".en"; ".addr"; ".data" ])
                    ms.Prep.mem.Stmt.mem_writers;
                  List.iter (fun (rp, _) -> push (mname ^ "." ^ rp ^ ".addr")) ms.Prep.latched_addrs
                end
            | None -> (
                match Hashtbl.find_opt p.Prep.node_defs n with
                | Some e -> push_expr e
                | None -> Option.iter push_expr (Hashtbl.find_opt p.Prep.drivers n)))
    end
  done;
  seen

(** Unroll [bound] cycles. With [~free_init:true] the initial state
    (registers, memory words, sync-read latches) consists of fresh
    variables instead of the power-on zeros — the arbitrary-state
    unrolling used by the inductive step of {!Bmc.prove_unreachable}.
    [~covers] selects the cover points to encode, and with them the cone
    of influence (see above); names that are not cover points are ignored.
    Without it every cover and the whole circuit are encoded. *)
let unroll ?(reset_cycles = 1) ?(free_init = false) ?covers (circuit : Circuit.t) ~bound : t =
  let p = Prep.prepare circuit in
  let ty_of = Circuit.lookup_of p.Prep.env in
  let mem_data_port = mem_data_ports p in
  let selected, in_cone =
    match covers with
    | None -> (p.Prep.covers, fun _ -> true)
    | Some names ->
        let selected = List.filter (fun (n, _) -> List.mem n names) p.Prep.covers in
        (selected, Hashtbl.mem (cone p mem_data_port (List.map snd selected)))
  in
  (* size the solver once: a frame takes about two variables per bit of
     the cone's signals and memory words. Past the cap the solver grows
     by doubling, so a large instance reserves no more than it uses, and
     a memory too deep to bit-blast reserves little before it is rejected
     below. *)
  let cone_bits =
    Hashtbl.fold (fun n ty acc -> if in_cone n then acc + Ty.width ty else acc) p.Prep.env 0
    + List.fold_left
        (fun acc (mname, (ms : Prep.mem_state)) ->
          let m = ms.Prep.mem in
          if in_cone mname then acc + (m.Stmt.mem_depth * Ty.width m.Stmt.mem_data) else acc)
        0 p.Prep.mems
  in
  let solver = Sat.create ~vars:(min (1 lsl 16) (2 * bound * cone_bits)) () in
  let ctx = Gate.create solver in
  let init_bits w = if free_init then Gate.fresh_bits ctx w else Gate.zero_bits ctx w in
  (* allocate input variables for all cycles; constrain reset; inputs
     outside the cone are constant 0 *)
  let input_bits =
    Hashtbl.fold
      (fun name w acc ->
        let arr =
          Array.init bound (fun t ->
              if name = "reset" then
                if t < reset_cycles then Gate.const_bits ctx (Bv.one 1)
                else Gate.const_bits ctx (Bv.zero 1)
              else if in_cone name then Gate.fresh_bits ctx w
              else Gate.zero_bits ctx w)
        in
        (name, arr) :: acc)
      p.Prep.input_names []
  in
  let regs = List.filter (fun (r : Prep.reg_info) -> in_cone r.Prep.reg_name) p.Prep.regs in
  let mems = List.filter (fun (mname, _) -> in_cone mname) p.Prep.mems in
  let input_of name t = Array.get (List.assoc name input_bits) t in
  (* state: registers and memory words, per cycle boundary *)
  let reg_state : (string, Gate.bits) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (r : Prep.reg_info) ->
      Hashtbl.replace reg_state r.Prep.reg_name (init_bits (Ty.width r.Prep.reg_ty)))
    regs;
  let mem_state : (string, Gate.bits array) Hashtbl.t = Hashtbl.create 8 in
  let latched : (string, Gate.bits) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (mname, (ms : Prep.mem_state)) ->
      let w = Ty.width ms.Prep.mem.Stmt.mem_data in
      if ms.Prep.mem.Stmt.mem_depth > 1024 then
        raise
          (Formal_error
             (Printf.sprintf "memory %s too deep (%d) for bit-blasting" mname
                ms.Prep.mem.Stmt.mem_depth));
      Hashtbl.replace mem_state mname
        (Array.init ms.Prep.mem.Stmt.mem_depth (fun i ->
             match ms.Prep.mem.Stmt.mem_init with
             | Some _ -> Gate.const_bits ctx (Bv.extend_u ms.Prep.data.(i) w)
             | None -> init_bits w));
      List.iter
        (fun (rp, _) ->
          Hashtbl.replace latched (mname ^ "." ^ rp)
            (init_bits (Ty.clog2 ms.Prep.mem.Stmt.mem_depth)))
        ms.Prep.latched_addrs)
    mems;
  (* per-cycle lazy evaluation into literals *)
  let covers = ref (List.map (fun (n, _) -> (n, Array.make bound (Gate.ff ctx))) selected) in
  for t = 0 to bound - 1 do
    let env = { values = Hashtbl.create 256; in_progress = Hashtbl.create 64 } in
    let rec value name : Gate.bits =
      match Hashtbl.find_opt env.values name with
      | Some b -> b
      | None ->
          if Hashtbl.mem env.in_progress name then
            raise (Formal_error ("combinational loop through " ^ name));
          if not (in_cone name) then
            raise (Formal_error (name ^ " is outside the cone of influence"));
          Hashtbl.replace env.in_progress name ();
          let b = compute name in
          Hashtbl.remove env.in_progress name;
          Hashtbl.replace env.values name b;
          b
    and compute name : Gate.bits =
      if Hashtbl.mem p.Prep.input_names name then input_of name t
      else
        match Hashtbl.find_opt reg_state name with
        | Some b -> b
        | None -> (
            match Hashtbl.find_opt mem_data_port name with
            | Some (mname, ms, rp) ->
                let words = Hashtbl.find mem_state mname in
                let addr =
                  if ms.Prep.mem.Stmt.mem_read_latency > 0 then
                    Hashtbl.find latched (mname ^ "." ^ rp)
                  else value (mname ^ "." ^ rp ^ ".addr")
                in
                read_mux words addr (Ty.width ms.Prep.mem.Stmt.mem_data)
            | None -> (
                match Hashtbl.find_opt p.Prep.node_defs name with
                | Some e -> blast e
                | None -> (
                    match Hashtbl.find_opt p.Prep.drivers name with
                    | Some e -> blast e
                    | None -> Gate.zero_bits ctx (Ty.width (ty_of name)))))
    and read_mux words addr w : Gate.bits =
      let result = ref (Gate.zero_bits ctx w) in
      Array.iteri
        (fun i word ->
          let sel =
            Gate.eq_bits ctx addr (Gate.const_bits ctx (Bv.of_int ~width:(Array.length addr) i))
          in
          result := Gate.mux_bits ctx sel word !result)
        words;
      !result
    and blast (e : Expr.t) : Gate.bits =
      match e with
      | Expr.Ref n -> value n
      | Expr.UIntLit v | Expr.SIntLit v -> Gate.const_bits ctx v
      | Expr.Mux (s, a, b) ->
          let sb = blast s in
          Gate.mux_bits ctx sb.(0) (blast a) (blast b)
      | Expr.Unop (op, a) -> Gate.unop ctx op ~ta:(Expr.type_of ty_of a) (blast a)
      | Expr.Binop (op, a, b) ->
          Gate.binop ctx op ~ta:(Expr.type_of ty_of a) ~tb:(Expr.type_of ty_of b) (blast a)
            (blast b)
      | Expr.Intop (op, n, a) -> Gate.intop ctx op n ~ta:(Expr.type_of ty_of a) (blast a)
      | Expr.Bits (a, hi, lo) -> Gate.bits_op (blast a) ~hi ~lo
    in
    (* cover predicates at cycle t *)
    covers :=
      List.map2
        (fun (name, pred) (name', arr) ->
          assert (String.equal name name');
          arr.(t) <- (blast pred).(0);
          (name', arr))
        selected !covers;
    (* next state *)
    let next_regs =
      List.map
        (fun (r : Prep.reg_info) ->
          let n = r.Prep.reg_name in
          let base =
            match Hashtbl.find_opt p.Prep.drivers n with
            | Some e -> blast e
            | None -> value n
          in
          let v =
            match r.Prep.reset with
            | Some (rst, init) ->
                let rb = blast rst in
                Gate.mux_bits ctx rb.(0) (blast init) base
            | None -> base
          in
          (n, v))
        regs
    in
    let next_mems =
      List.map
        (fun (mname, (ms : Prep.mem_state)) ->
          let words = Hashtbl.find mem_state mname in
          let words' =
            Array.mapi
              (fun i word ->
                List.fold_left
                  (fun acc { Stmt.wp_name } ->
                    let en = (value (mname ^ "." ^ wp_name ^ ".en")).(0) in
                    let addr = value (mname ^ "." ^ wp_name ^ ".addr") in
                    let data = value (mname ^ "." ^ wp_name ^ ".data") in
                    let hit =
                      Gate.and2 ctx en
                        (Gate.eq_bits ctx addr
                           (Gate.const_bits ctx (Bv.of_int ~width:(Array.length addr) i)))
                    in
                    Gate.mux_bits ctx hit data acc)
                  word ms.Prep.mem.Stmt.mem_writers)
              words
          in
          let latches =
            List.map
              (fun (rp, _) -> (mname ^ "." ^ rp, value (mname ^ "." ^ rp ^ ".addr")))
              ms.Prep.latched_addrs
          in
          (mname, words', latches))
        mems
    in
    List.iter (fun (n, v) -> Hashtbl.replace reg_state n v) next_regs;
    List.iter
      (fun (mname, words', latches) ->
        Hashtbl.replace mem_state mname words';
        List.iter (fun (k, v) -> Hashtbl.replace latched k v) latches)
      next_mems
  done;
  { ctx; p; bound; input_bits; cover_lits = !covers; regs_in_cone = List.length regs }
