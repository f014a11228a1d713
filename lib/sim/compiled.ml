(** Compiled simulator — the Verilator analogue, built around a
    {e word-level engine}. {!Tape.build} flattens the lowered circuit
    into slots and a topologically-sorted {e instruction tape} of
    proto-instructions; this module decodes them for scalar execution:

    - every named signal (and every temporary produced by linearizing an
      expression tree into three-address form) gets a slot; slots of width
      [<= 62] live in an unboxed [int array] holding the signal's bit
      pattern masked to its width (signed operators sign-extend on read),
      wider slots fall back to a [Bv.t array];
    - each combinational update is one entry of a flat variant array with
      pre-resolved slot indices and operator metadata, executed by a tight
      match loop (see {!Eval.Int} for the operator semantics). On the
      int-only path a simulation cycle performs {e no heap allocation};
      instructions touching wide slots drop to a boxed closure over
      {!Eval}'s [Bv] semantics.

    [~activity:true] turns on ESSENT-style conditional evaluation
    ({!Essent} is a thin wrapper): per-instruction dirty flags driven by
    pre-computed reader index lists — an instruction re-runs only when one
    of its input slots actually changed, exploiting low activity factors.

    [~builtin_line:true] reproduces a simulator with {e hard-coded} line
    coverage (Verilator's built-in [--coverage-line]): the same
    {!Sic_coverage.Line_coverage.instrument} pass is performed internally
    by the simulator rather than in the user-visible pass pipeline, so its
    counters keep the usual [l_*] names — they {e are} the same
    instrumentation, performed internally, which is the paper's §6/Fig. 8
    explanation for why built-in and pass-based overheads match. The
    internal instrumentation database is exposed via {!line_db}. *)

open Sic_ir
module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Obs = Sic_obs.Obs
module Prep = Backend.Prep

(* Flat tape instructions, fully decoded at build time: slot indices are
   pre-resolved, operand signedness is folded into a sign-extension shift
   count (0 for unsigned operands — [(x lsl 0) asr 0] is the identity), and
   all width arithmetic is gone; the execution loop masks every result to
   the destination width. Int variants read/write the unboxed array only;
   [IBitsW] is the no-allocation narrow-extract-from-wide fast path and
   [IBox] the general wide-signal fallback. *)
type ins =
  | ICopy of int
  | IMux of int * int * int  (** sel, then, else *)
  | INot of int
  | IAndr of int * int  (** full mask of the operand width, src *)
  | IOrr of int
  | IXorr of int
  | INeg of int * int  (** sext shift, src *)
  | ISext of int * int  (** sext shift, src (signed widening Pad) *)
  | IShrC of int * int  (** constant logical right shift: Bits/Head/Shr *)
  | IShlC of int * int  (** constant left shift: Shl *)
  | IAdd of int * int * int * int  (** sha, a, shb, b *)
  | ISub of int * int * int * int
  | IMul of int * int * int * int
  | IDiv of int * int * int * int
  | IRem of int * int * int * int
  | ILt of int * int * int * int
  | ILeq of int * int * int * int
  | IGt of int * int * int * int
  | IGeq of int * int * int * int
  | IEq of int * int * int * int
  | INeq of int * int * int * int
  | IAnd of int * int * int * int
  | IOr of int * int * int * int
  | IXor of int * int * int * int
  | ICat of int * int * int  (** a, width of b, b *)
  | IDshl of int * int * int * int  (** sha, a, result width, shift slot *)
  | IDshr of int * int * int  (** sha, a, shift slot *)
  | IBitsW of int * int * int  (** lo, field width, wide src *)
  | IOrrW of int  (** Orr of a wide operand into a 1-bit slot *)
  | IAndrW of int * int  (** operand width, wide src *)
  | IXorrW of int
  | IMemRead of int array * int  (** memory data, addr slot *)
  (* Wide-destination in-place instructions: each mutates the destination
     slot's privately-owned [Bv.t] buffer and allocates nothing. Decoded
     only for the shapes real designs produce in bulk (wide muxes and
     logic, the 1-bit-at-a-time Cat chains Chisel emits for vector
     aggregation, one-hot [Dshl], unsigned wide [Dshr]). *)
  | WMux of int * int * int  (** sel, then, else (arms at dst width) *)
  | WCat of int * int * int  (** a, b, width of b *)
  | WDshl of int * int  (** unsigned narrow a, narrow shift slot *)
  | WDshr of int * int  (** unsigned wide a, narrow shift slot *)
  | WOr of int * int
  | WAnd of int * int
  | WXor of int * int
  | IBox of (unit -> Bv.t)  (** boxed fallback (some slot is wide) *)

(* Mnemonic per decoded instruction, for profile rows. *)
let op_name = function
  | ICopy _ -> "copy" | IMux _ -> "mux" | INot _ -> "not" | IAndr _ -> "andr"
  | IOrr _ -> "orr" | IXorr _ -> "xorr" | INeg _ -> "neg" | ISext _ -> "sext"
  | IShrC _ -> "shr" | IShlC _ -> "shl" | IAdd _ -> "add" | ISub _ -> "sub"
  | IMul _ -> "mul" | IDiv _ -> "div" | IRem _ -> "rem" | ILt _ -> "lt"
  | ILeq _ -> "leq" | IGt _ -> "gt" | IGeq _ -> "geq" | IEq _ -> "eq"
  | INeq _ -> "neq" | IAnd _ -> "and" | IOr _ -> "or" | IXor _ -> "xor"
  | ICat _ -> "cat" | IDshl _ -> "dshl" | IDshr _ -> "dshr" | IBitsW _ -> "bitsw"
  | IOrrW _ -> "orrw" | IAndrW _ -> "andrw" | IXorrW _ -> "xorrw"
  | IMemRead _ -> "memread" | WMux _ -> "wmux" | WCat _ -> "wcat"
  | WDshl _ -> "wdshl" | WDshr _ -> "wdshr" | WOr _ -> "wor" | WAnd _ -> "wand"
  | WXor _ -> "wxor" | IBox _ -> "box"

(* Engine profiler state (see {!Profile}): per-tape-index counters plus the
   static provenance computed at build time. [ph_hits] counts
   {e value-changing} evaluations — a property of the value stream, so it
   is identical across the plain and activity schedulers (and matches
   {!Interp.create_profiled}'s), which is what makes the exported artifact
   byte-deterministic. [ph_exec] counts actual executions — the dirty-flag
   scheduler's re-evals (profiled builds always run the activity
   schedule) — a live-only diagnostic excluded from the artifact, because
   re-eval counts legitimately differ between engines: a linearized temp
   can absorb an input change without the root instruction re-running,
   while a whole-expression engine re-evaluates. *)
type prof = {
  ph_hits : int array;
  ph_time : int array;  (** accumulated sampled self-time, ns *)
  ph_exec : int array;  (** dirty-flag scheduler re-evaluation counts *)
  ph_every : int;  (** sample timings every Nth [run_tape]; 0 = counts only *)
  ph_cal : int;  (** calibrated fixed cost of one clock pair, ns *)
  mutable ph_runs : int;
  ph_roots : string array;  (** per tape index: originating statement name *)
  ph_is_root : bool array;  (** produces the root statement's own value *)
  ph_ops : string array;
  ph_wscr : Bv.t array;
      (** per tape index: pre-allocated old-value scratch for wide
          in-place change detection (width-1 dummy elsewhere), so the
          profiled loops stay allocation-free *)
}

(** [Sampled n] also samples per-instruction wall time every [n]th
    [run_tape]; [Counts_only] (fleet workers, differential tests) keeps
    only the deterministic hit counts. *)
type profile_mode = Counts_only | Sampled of int

type mem_store = M_int of int array | M_bv of Bv.t array

type wmem = {
  m_width : int;
  m_zero : Bv.t;
  store : mem_store;
  wp_en : int array;
  wp_addr : int array;
  wp_data : int array;
  sr_addr : int array;  (** sync read ports: addr slot *)
  sr_data : int array;  (** sync read ports: data slot (state) *)
  comb_readers : int array;
      (** tape indices of combinational reads, re-dirtied on write *)
}

type t = {
  p : Prep.prepared;
  slot_of : (string, int) Hashtbl.t;
  alias : int array;  (** copy-eliminated slot -> representative *)
  widths : int array;  (** per slot *)
  wide : bool array;  (** per slot: width > {!Eval.Int.max_width} *)
  ivals : int array;  (** narrow slots: masked bit patterns *)
  bvals : Bv.t array;  (** wide slots *)
  ins : ins array;
  dsts : int array;  (** per tape index: destination slot *)
  masks : int array;  (** per tape index: mask of the destination width *)
  slot_readers : int array array;  (** slot -> tape indices reading it *)
  dirty : bool array;  (** per tape index (activity mode) *)
  cover_names : string array;
  cover_slots : int array;
  counters : int array;
  cv_names : string array;
  cv_sig : int array;
  cv_en : int array;
  cv_arr : int array array;
  stop_slots : int array;
  print_conds : int array;
  print_msgs : string array;
  print_args : int array array;
  ri_dst : int array;  (** narrow registers: slot *)
  ri_src : int array;  (** narrow registers: next-value slot *)
  ri_scratch : int array;
  rb_dst : int array;  (** wide registers *)
  rb_src : int array;
  rb_scratch : Bv.t array;
  mems : wmem array;
  builtin_db : Sic_coverage.Line_coverage.db option;
  prof : prof option;
  activity : bool;
  mutable tape_dirty : bool;
  mutable cycle : int;
  mutable stopped : bool;
}

let read_slot_int (t : t) s =
  if t.wide.(s) then Bv.to_int_trunc t.bvals.(s) else t.ivals.(s)

let read_slot_bool (t : t) s =
  if t.wide.(s) then not (Bv.is_zero t.bvals.(s)) else t.ivals.(s) <> 0

(* Allocates for narrow slots; only used off the per-cycle path (peek,
   print formatting). *)
let read_slot_bv (t : t) s =
  if t.wide.(s) then t.bvals.(s)
  else Bv.of_int62 ~width:t.widths.(s) t.ivals.(s)

(* Like {!read_slot_bv} but never returns an engine-owned buffer: wide
   slots produced by in-place instructions are mutated every cycle, so any
   value that escapes the current tape run (peeks, register scratch,
   memory stores) must be a private copy. *)
let read_slot_bv_fresh (t : t) s =
  if t.wide.(s) then Bv.copy t.bvals.(s)
  else Bv.of_int62 ~width:t.widths.(s) t.ivals.(s)

let build ?(builtin_line = false) ?(activity = false) ?profile (c : Circuit.t) : t =
  (* Profiled builds always run the change-driven (activity) schedule:
     change detection is what that scheduler does anyway, so exact hit
     counts come at its marginal cost instead of adding a compare to the
     throughput loop — and the two schedules produce identical values, so
     forcing it is unobservable apart from timing. *)
  let activity = activity || profile <> None in
  let tp = Tape.build ~builtin_line c in
  let p = tp.Tape.p in
  let widths = tp.Tape.widths in
  let nslots = Array.length widths in
  let protos_arr = tp.Tape.protos in
  let np = Array.length protos_arr in
  (* slot metadata and value arrays *)
  let wide = Array.map (fun w -> not (Eval.Int.fits w)) widths in
  let ivals = Array.make nslots 0 in
  let bvals = Array.make nslots (Bv.zero 1) in
  for s = 0 to nslots - 1 do
    if wide.(s) then bvals.(s) <- Bv.zero widths.(s)
  done;
  List.iter
    (fun (s, v) ->
      if wide.(s) then bvals.(s) <- Bv.extend_u v widths.(s)
      else ivals.(s) <- Bv.to_int_trunc v land Eval.Int.mask widths.(s))
    tp.Tape.presets;
  (* memory runtime: narrow data lives in an int array *)
  let mems =
    Array.map
      (fun (m : Tape.mem) ->
        let store =
          (* the tape's init image already carries any power-on data *)
          if Eval.Int.fits m.Tape.m_width then
            M_int
              (Array.init m.Tape.m_depth (fun i -> Bv.to_int_trunc m.Tape.m_init.(i)))
          else M_bv (Array.init m.Tape.m_depth (fun i -> m.Tape.m_init.(i)))
        in
        {
          m_width = m.Tape.m_width;
          m_zero = Bv.zero m.Tape.m_width;
          store;
          wp_en = m.Tape.wp_en;
          wp_addr = m.Tape.wp_addr;
          wp_data = m.Tape.wp_data;
          sr_addr = m.Tape.sr_addr;
          sr_data = m.Tape.sr_data;
          comb_readers = m.Tape.comb_readers;
        })
      tp.Tape.mems
  in
  (* finalize the tape: decide int vs boxed per instruction, build the
     boxed closures now that the value arrays exist *)
  let narrow s = not wide.(s) in
  let rd s =
    if wide.(s) then bvals.(s) else Bv.of_int62 ~width:widths.(s) ivals.(s)
  in
  let rdb s = if wide.(s) then not (Bv.is_zero bvals.(s)) else ivals.(s) <> 0 in
  let ins = Array.make np (ICopy 0) in
  let dsts = Array.make np 0 in
  let masks = Array.make np 0 in
  (* sign-extension shift count for an operand read: 0 for unsigned
     operands, [(x lsl 0) asr 0] being the identity *)
  let sx ty = if Ty.is_signed ty then 63 - Ty.width ty else 0 in
  (* Boxed fallback. A closure may return one of its operands (identity
     pads, muxes, copies); if the destination is wide that object would be
     rebound into [bvals] — and were the operand an in-place instruction's
     buffer, later mutations would silently change this slot too and defeat
     activity-mode change detection. A copy keeps every boxed wide result
     privately owned. SIC_DEBUG_TAPE=1 prints what failed to decode. *)
  let dbg_tape = Sys.getenv_opt "SIC_DEBUG_TAPE" <> None in
  let boxed kind (pr : Tape.proto) f =
    if dbg_tape then
      Printf.eprintf "BOX %-8s dst_w=%d deps_w=[%s]\n" kind widths.(pr.Tape.pdst)
        (String.concat ";"
           (List.map (fun s -> string_of_int widths.(s)) pr.Tape.pdeps));
    if wide.(pr.Tape.pdst) then IBox (fun () -> Bv.copy (f ())) else IBox f
  in
  Array.iteri
    (fun k (pr : Tape.proto) ->
      dsts.(k) <- pr.Tape.pdst;
      masks.(k) <- Eval.Int.mask widths.(pr.Tape.pdst);
      ins.(k) <-
        (match pr.Tape.pins with
        | Tape.PCopy s ->
            if narrow pr.Tape.pdst && narrow s then ICopy s
            else boxed "copy" pr (fun () -> rd s)
        | Tape.PMux (ss, sa, sb) ->
            if narrow pr.Tape.pdst && narrow ss && narrow sa && narrow sb then
              IMux (ss, sa, sb)
            else if
              narrow ss && wide.(sa) && wide.(sb)
              && widths.(sa) = widths.(pr.Tape.pdst)
              && widths.(sb) = widths.(pr.Tape.pdst)
            then WMux (ss, sa, sb)
            else boxed "mux" pr (fun () -> if rdb ss then rd sa else rd sb)
        | Tape.PUnop (op, ta, sa) ->
            if narrow pr.Tape.pdst && narrow sa then begin
              let w = Ty.width ta in
              match op with
              | Expr.Not -> INot sa
              | Expr.Andr ->
                  (* zero-width reduction is constant false *)
                  if w = 0 then IShrC (62, sa) else IAndr (Eval.Int.mask w, sa)
              | Expr.Orr -> IOrr sa
              | Expr.Xorr -> IXorr sa
              | Expr.Neg -> INeg (sx ta, sa)
              | Expr.Cvt | Expr.AsUInt | Expr.AsSInt -> ICopy sa
            end
            else if narrow pr.Tape.pdst && wide.(sa) then begin
              match op with
              | Expr.Orr -> IOrrW sa
              | Expr.Andr -> IAndrW (Ty.width ta, sa)
              | Expr.Xorr -> IXorrW sa
              | _ -> boxed "unop" pr (fun () -> Eval.unop op ~ta (rd sa))
            end
            else boxed "unop" pr (fun () -> Eval.unop op ~ta (rd sa))
        | Tape.PBinop (op, ta, tb, sa, sb) ->
            if narrow pr.Tape.pdst && narrow sa && narrow sb then begin
              let sha = sx ta and shb = sx tb in
              match op with
              | Expr.Add -> IAdd (sha, sa, shb, sb)
              | Expr.Sub -> ISub (sha, sa, shb, sb)
              | Expr.Mul -> IMul (sha, sa, shb, sb)
              | Expr.Div -> IDiv (sha, sa, shb, sb)
              | Expr.Rem -> IRem (sha, sa, shb, sb)
              | Expr.Lt -> ILt (sha, sa, shb, sb)
              | Expr.Leq -> ILeq (sha, sa, shb, sb)
              | Expr.Gt -> IGt (sha, sa, shb, sb)
              | Expr.Geq -> IGeq (sha, sa, shb, sb)
              | Expr.Eq -> IEq (sha, sa, shb, sb)
              | Expr.Neq -> INeq (sha, sa, shb, sb)
              | Expr.And -> IAnd (sha, sa, shb, sb)
              | Expr.Or -> IOr (sha, sa, shb, sb)
              | Expr.Xor -> IXor (sha, sa, shb, sb)
              | Expr.Cat -> ICat (sa, Ty.width tb, sb)
              | Expr.Dshl ->
                  IDshl (sha, sa, Ty.width ta + (1 lsl Ty.width tb) - 1, sb)
              | Expr.Dshr -> IDshr (sha, sa, sb)
            end
            else begin
              let wd = widths.(pr.Tape.pdst) in
              let same_width = Ty.width ta = wd && Ty.width tb = wd in
              match op with
              | Expr.Cat when wide.(pr.Tape.pdst) -> WCat (sa, sb, Ty.width tb)
              | Expr.Or
                when wide.(pr.Tape.pdst) && wide.(sa) && wide.(sb)
                     && ((not (Ty.is_signed ta)) || same_width) -> WOr (sa, sb)
              | Expr.And
                when wide.(pr.Tape.pdst) && wide.(sa) && wide.(sb)
                     && ((not (Ty.is_signed ta)) || same_width) -> WAnd (sa, sb)
              | Expr.Xor
                when wide.(pr.Tape.pdst) && wide.(sa) && wide.(sb)
                     && ((not (Ty.is_signed ta)) || same_width) -> WXor (sa, sb)
              | Expr.Dshl
                when wide.(pr.Tape.pdst) && narrow sa && narrow sb
                     && not (Ty.is_signed ta) -> WDshl (sa, sb)
              | Expr.Dshr
                when wide.(pr.Tape.pdst) && wide.(sa) && narrow sb
                     && (not (Ty.is_signed ta)) && widths.(sa) = wd ->
                  WDshr (sa, sb)
              | _ ->
                  boxed
                    (match op with
                    | Expr.Add -> "Add" | Expr.Sub -> "Sub" | Expr.Mul -> "Mul"
                    | Expr.Div -> "Div" | Expr.Rem -> "Rem" | Expr.Lt -> "Lt"
                    | Expr.Leq -> "Leq" | Expr.Gt -> "Gt" | Expr.Geq -> "Geq"
                    | Expr.Eq -> "Eq" | Expr.Neq -> "Neq" | Expr.And -> "And"
                    | Expr.Or -> "Or" | Expr.Xor -> "Xor" | Expr.Cat -> "Cat"
                    | Expr.Dshl -> "Dshl" | Expr.Dshr -> "Dshr")
                    pr
                    (fun () -> Eval.binop op ~ta ~tb (rd sa) (rd sb))
            end
        | Tape.PIntop (op, n, ta, sa) ->
            if narrow pr.Tape.pdst && narrow sa then begin
              let w = Ty.width ta in
              match op with
              | Expr.Pad ->
                  if Ty.is_signed ta && n > w then ISext (63 - w, sa) else ICopy sa
              | Expr.Shl -> IShlC (n, sa)
              | Expr.Shr ->
                  IShrC ((if Ty.is_signed ta then min n (w - 1) else min n 62), sa)
              | Expr.Head -> IShrC (w - n, sa)
              | Expr.Tail -> ICopy sa (* destination mask truncates *)
            end
            else boxed "intop" pr (fun () -> Eval.intop op n ~ta (rd sa))
        | Tape.PBits (hi, lo, sa) ->
            if narrow pr.Tape.pdst && narrow sa then IShrC (lo, sa)
            else if narrow pr.Tape.pdst then IBitsW (lo, hi - lo + 1, sa)
            else boxed "bits" pr (fun () -> Eval.bits ~hi ~lo (rd sa))
        | Tape.PMemRead (mi, ai) -> (
            let m = mems.(mi) in
            match m.store with
            | M_int data when narrow ai -> IMemRead (data, ai)
            | M_int data ->
                IBox
                  (fun () ->
                    let a = Bv.to_int_trunc bvals.(ai) in
                    Bv.of_int62 ~width:m.m_width
                      (if a < Array.length data then data.(a) else 0))
            | M_bv data ->
                IBox
                  (fun () ->
                    let a =
                      if wide.(ai) then Bv.to_int_trunc bvals.(ai) else ivals.(ai)
                    in
                    if a < Array.length data then data.(a) else m.m_zero))))
    protos_arr;
  (* reverse edges for the activity worklist; the tape precomputed which
     positions are a memory's combinational reads (re-dirtied on write) *)
  let readers_l = Array.make nslots [] in
  Array.iteri
    (fun k (pr : Tape.proto) ->
      List.iter (fun s -> readers_l.(s) <- k :: readers_l.(s)) pr.Tape.pdeps)
    protos_arr;
  let slot_readers = Array.map (fun l -> Array.of_list (List.rev l)) readers_l in
  let reg_list = Array.to_list tp.Tape.regs in
  let ri = List.filter (fun (_, _, w) -> Eval.Int.fits w) reg_list in
  let rb = List.filter (fun (_, _, w) -> not (Eval.Int.fits w)) reg_list in
  let prof =
    match profile with
    | None -> None
    | Some mode ->
        let ph_roots = Array.copy tp.Tape.roots in
        let ph_is_root =
          Array.init np (fun k ->
              match Hashtbl.find_opt tp.Tape.root_slot tp.Tape.roots.(k) with
              | Some s -> s = protos_arr.(k).Tape.pdst
              | None -> false)
        in
        let ph_ops = Array.map op_name ins in
        let ph_every = match mode with Counts_only -> 0 | Sampled n -> max 1 n in
        (* calibrate out the cost of a clock-read pair so sampled
           self-times measure the instruction, not the probe *)
        let ph_cal =
          if ph_every = 0 then 0
          else begin
            let m = ref max_int in
            for _ = 1 to 256 do
              let a = Obs.now_ns () in
              let b = Obs.now_ns () in
              if b - a >= 0 && b - a < !m then m := b - a
            done;
            if !m = max_int then 0 else !m
          end
        in
        let ph_wscr =
          Array.init np (fun k ->
              match ins.(k) with
              | WMux _ | WCat _ | WDshl _ | WDshr _ | WOr _ | WAnd _ | WXor _ ->
                  Bv.zero widths.(dsts.(k))
              | _ -> Bv.zero 1)
        in
        Some
          {
            ph_hits = Array.make np 0;
            ph_time = Array.make np 0;
            ph_exec = Array.make np 0;
            ph_every;
            ph_cal;
            ph_runs = 0;
            ph_roots;
            ph_is_root;
            ph_ops;
            ph_wscr;
          }
  in
  {
    p;
    slot_of = tp.Tape.slot_of;
    alias = tp.Tape.alias;
    widths;
    wide;
    ivals;
    bvals;
    ins;
    dsts;
    masks;
    slot_readers;
    dirty = Array.make np true;
    cover_names = tp.Tape.cover_names;
    cover_slots = tp.Tape.cover_slots;
    counters = Array.make (Array.length tp.Tape.cover_names) 0;
    cv_names = tp.Tape.cv_names;
    cv_sig = tp.Tape.cv_sig;
    cv_en = tp.Tape.cv_en;
    cv_arr = Array.map (fun w -> Array.make (1 lsl min w 20) 0) tp.Tape.cv_widths;
    stop_slots = tp.Tape.stop_slots;
    print_conds = tp.Tape.print_conds;
    print_msgs = tp.Tape.print_msgs;
    print_args = tp.Tape.print_args;
    ri_dst = Array.of_list (List.map (fun (d, _, _) -> d) ri);
    ri_src = Array.of_list (List.map (fun (_, s, _) -> s) ri);
    ri_scratch = Array.make (List.length ri) 0;
    rb_dst = Array.of_list (List.map (fun (d, _, _) -> d) rb);
    rb_src = Array.of_list (List.map (fun (_, s, _) -> s) rb);
    rb_scratch = Array.make (List.length rb) (Bv.zero 1);
    mems;
    builtin_db = tp.Tape.builtin_db;
    prof;
    activity;
    tape_dirty = true;
    cycle = 0;
    stopped = false;
  }

let line_db (t : t) = t.builtin_db

(* Tape composition, for the bench harness and perf debugging. *)
let stats (t : t) : string =
  let boxed = ref 0 and wide_extract = ref 0 and wide_inplace = ref 0 in
  Array.iter
    (function
      | IBox _ -> incr boxed
      | IBitsW _ | IOrrW _ | IAndrW _ | IXorrW _ -> incr wide_extract
      | WMux _ | WCat _ | WDshl _ | WDshr _ | WOr _ | WAnd _ | WXor _ ->
          incr wide_inplace
      | _ -> ())
    t.ins;
  let wide_slots = Array.fold_left (fun n w -> if w then n + 1 else n) 0 t.wide in
  Printf.sprintf
    "%d instructions (%d boxed, %d wide-extract, %d wide-inplace), %d slots (%d wide)"
    (Array.length t.ins) !boxed !wide_extract !wide_inplace (Array.length t.widths)
    wide_slots

let mark_readers (t : t) s =
  let rs = t.slot_readers.(s) in
  for i = 0 to Array.length rs - 1 do
    t.dirty.(rs.(i)) <- true
  done

(* Operand read with a pre-decoded sign-extension shift (0 = unsigned). *)
let[@inline] sxr (iv : int array) sh s = (Array.unsafe_get iv s lsl sh) asr sh

(* Int-path instruction execution, returning the {e unmasked} result; the
   run loop masks to the destination width. [IBox] is handled by the
   callers. Slot indices were validated at build time, so plain unsafe
   array reads are fine here. *)
let exec_value (t : t) (i : ins) : int =
  let iv = t.ivals in
  match i with
  | ICopy s -> Array.unsafe_get iv s
  | IMux (s, a, b) ->
      if Array.unsafe_get iv s <> 0 then Array.unsafe_get iv a
      else Array.unsafe_get iv b
  | INot s -> lnot (Array.unsafe_get iv s)
  | IAndr (full, s) -> if Array.unsafe_get iv s = full then 1 else 0
  | IOrr s -> if Array.unsafe_get iv s <> 0 then 1 else 0
  | IXorr s -> Bv.popcount_int (Array.unsafe_get iv s) land 1
  | INeg (sh, s) -> -sxr iv sh s
  | ISext (sh, s) -> sxr iv sh s
  | IShrC (n, s) -> Array.unsafe_get iv s lsr n
  | IShlC (n, s) -> Array.unsafe_get iv s lsl n
  | IAdd (sha, a, shb, b) -> sxr iv sha a + sxr iv shb b
  | ISub (sha, a, shb, b) -> sxr iv sha a - sxr iv shb b
  | IMul (sha, a, shb, b) -> sxr iv sha a * sxr iv shb b
  | IDiv (sha, a, shb, b) ->
      let d = sxr iv shb b in
      if d = 0 then 0 else sxr iv sha a / d
  | IRem (sha, a, shb, b) ->
      let d = sxr iv shb b in
      if d = 0 then Array.unsafe_get iv a else sxr iv sha a mod d
  | ILt (sha, a, shb, b) -> if sxr iv sha a < sxr iv shb b then 1 else 0
  | ILeq (sha, a, shb, b) -> if sxr iv sha a <= sxr iv shb b then 1 else 0
  | IGt (sha, a, shb, b) -> if sxr iv sha a > sxr iv shb b then 1 else 0
  | IGeq (sha, a, shb, b) -> if sxr iv sha a >= sxr iv shb b then 1 else 0
  | IEq (sha, a, shb, b) -> if sxr iv sha a = sxr iv shb b then 1 else 0
  | INeq (sha, a, shb, b) -> if sxr iv sha a <> sxr iv shb b then 1 else 0
  | IAnd (sha, a, shb, b) -> sxr iv sha a land sxr iv shb b
  | IOr (sha, a, shb, b) -> sxr iv sha a lor sxr iv shb b
  | IXor (sha, a, shb, b) -> sxr iv sha a lxor sxr iv shb b
  | ICat (a, wb, b) -> (Array.unsafe_get iv a lsl wb) lor Array.unsafe_get iv b
  | IDshl (sha, a, wr, b) ->
      let n = Array.unsafe_get iv b in
      if n >= wr then 0 else sxr iv sha a lsl n
  | IDshr (sha, a, b) ->
      let n = Array.unsafe_get iv b in
      sxr iv sha a asr (if n > 62 then 62 else n)
  | IBitsW (lo, w, s) -> Bv.extract_int (Array.unsafe_get t.bvals s) ~lo ~width:w
  | IOrrW s -> if Bv.is_zero (Array.unsafe_get t.bvals s) then 0 else 1
  | IAndrW (w, s) -> if Bv.popcount (Array.unsafe_get t.bvals s) = w then 1 else 0
  | IXorrW s -> Bv.popcount (Array.unsafe_get t.bvals s) land 1
  | IMemRead (data, a) ->
      let ad = Array.unsafe_get iv a in
      if ad < Array.length data then Array.unsafe_get data ad else 0
  | WMux _ | WCat _ | WDshl _ | WDshr _ | WOr _ | WAnd _ | WXor _ | IBox _ ->
      assert false

(* Wide-destination in-place execution: mutates the destination slot's
   buffer directly, no allocation. The buffer identity is stable for the
   life of the simulation — a slot produced by an in-place instruction is
   never rebound, and values that escape the tape are copied
   ({!read_slot_bv_fresh}). *)
let exec_wide (t : t) (d : int) (i : ins) : unit =
  let bv = t.bvals in
  match i with
  | WMux (ss, sa, sb) ->
      Bv.blit_into
        ~dst:(Array.unsafe_get bv d)
        (Array.unsafe_get bv (if Array.unsafe_get t.ivals ss <> 0 then sa else sb))
  | WCat (sa, sb, wb) ->
      let dst = Array.unsafe_get bv d in
      Bv.fill_zero dst;
      if t.wide.(sb) then Bv.or_bits_into ~dst ~lo:0 (Array.unsafe_get bv sb)
      else Bv.or_int_into ~dst ~lo:0 (Array.unsafe_get t.ivals sb);
      if t.wide.(sa) then Bv.or_bits_into ~dst ~lo:wb (Array.unsafe_get bv sa)
      else Bv.or_int_into ~dst ~lo:wb (Array.unsafe_get t.ivals sa)
  | WDshl (sa, sb) ->
      let dst = Array.unsafe_get bv d in
      Bv.fill_zero dst;
      let n = Array.unsafe_get t.ivals sb in
      if n < t.widths.(d) then Bv.or_int_into ~dst ~lo:n (Array.unsafe_get t.ivals sa)
  | WDshr (sa, sb) ->
      Bv.shr_into ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get t.ivals sb)
  | WOr (sa, sb) ->
      Bv.logor_into ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get bv sb)
  | WAnd (sa, sb) ->
      Bv.logand_into ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get bv sb)
  | WXor (sa, sb) ->
      Bv.logxor_into ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get bv sb)
  | _ -> assert false

(* Wide in-place execution with change detection, for the profiled paths.
   Single-op instructions use {!Bv}'s fused [_changed] kernels (one pass,
   same cost as the plain op); the two multi-call compositions (cat and
   dynamic left shift build their result with several OR passes) execute
   into the pre-allocated per-index scratch and commit on change. The
   destination buffer's identity is preserved either way, and nothing
   allocates. *)
let exec_wide_changed (t : t) (scr : Bv.t) (d : int) (i : ins) : bool =
  let bv = t.bvals in
  match i with
  | WMux (ss, sa, sb) ->
      Bv.blit_into_changed
        ~dst:(Array.unsafe_get bv d)
        (Array.unsafe_get bv (if Array.unsafe_get t.ivals ss <> 0 then sa else sb))
  | WDshr (sa, sb) ->
      Bv.shr_into_changed ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get t.ivals sb)
  | WOr (sa, sb) ->
      Bv.logor_into_changed ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get bv sb)
  | WAnd (sa, sb) ->
      Bv.logand_into_changed ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get bv sb)
  | WXor (sa, sb) ->
      Bv.logxor_into_changed ~dst:(Array.unsafe_get bv d) (Array.unsafe_get bv sa)
        (Array.unsafe_get bv sb)
  | (WCat _ | WDshl _) as i ->
      let old = bv.(d) in
      bv.(d) <- scr;
      exec_wide t d i;
      bv.(d) <- old;
      if Bv.equal scr old then false
      else begin
        Bv.blit_into ~dst:old scr;
        true
      end
  | _ -> assert false

(* Generic execute-compare-store used by the activity-counts and timed
   loops; reports whether the destination's value changed. *)
let exec_changed (t : t) (pf : prof) (k : int) (d : int) : bool =
  match Array.unsafe_get t.ins k with
  | IBox f ->
      if t.wide.(d) then begin
        let v = f () in
        if Bv.equal v t.bvals.(d) then false
        else begin
          t.bvals.(d) <- v;
          true
        end
      end
      else begin
        let v = Bv.to_int_trunc (f ()) land t.masks.(k) in
        if v = t.ivals.(d) then false
        else begin
          t.ivals.(d) <- v;
          true
        end
      end
  | (WMux _ | WCat _ | WDshl _ | WDshr _ | WOr _ | WAnd _ | WXor _) as i ->
      exec_wide_changed t (Array.unsafe_get pf.ph_wscr k) d i
  | i ->
      let v = exec_value t i land Array.unsafe_get t.masks k in
      if v = Array.unsafe_get t.ivals d then false
      else begin
        Array.unsafe_set t.ivals d v;
        true
      end

(* Counts profiling: the dirty-flag worklist (profiled builds always use
   the activity schedule) with per-instruction execution counts
   ([ph_exec], the scheduler diagnostic) alongside the change counts.
   Wide in-place results are change-compared here, so readers re-dirty
   only on real changes — strictly more precise than the unprofiled
   conservative re-dirty and value-equivalent (re-running on unchanged
   inputs cannot change outputs). *)
let run_tape_counts (t : t) (pf : prof) =
  let n = Array.length t.ins in
  let execs = pf.ph_exec and hits = pf.ph_hits in
  for k = 0 to n - 1 do
    if Array.unsafe_get t.dirty k then begin
      Array.unsafe_set t.dirty k false;
      Array.unsafe_set execs k (Array.unsafe_get execs k + 1);
      let d = Array.unsafe_get t.dsts k in
      match Array.unsafe_get t.ins k with
      | IBox f ->
          if t.wide.(d) then begin
            let v = f () in
            if not (Bv.equal v t.bvals.(d)) then begin
              t.bvals.(d) <- v;
              Array.unsafe_set hits k (Array.unsafe_get hits k + 1);
              mark_readers t d
            end
          end
          else begin
            let v = Bv.to_int_trunc (f ()) land t.masks.(k) in
            if v <> t.ivals.(d) then begin
              t.ivals.(d) <- v;
              Array.unsafe_set hits k (Array.unsafe_get hits k + 1);
              mark_readers t d
            end
          end
      | (WMux _ | WCat _ | WDshl _ | WDshr _ | WOr _ | WAnd _ | WXor _) as i ->
          if exec_wide_changed t (Array.unsafe_get pf.ph_wscr k) d i then begin
            Array.unsafe_set hits k (Array.unsafe_get hits k + 1);
            mark_readers t d
          end
      | i ->
          let v = exec_value t i land Array.unsafe_get t.masks k in
          if v <> Array.unsafe_get t.ivals d then begin
            Array.unsafe_set t.ivals d v;
            Array.unsafe_set hits k (Array.unsafe_get hits k + 1);
            mark_readers t d
          end
    end
  done

(* The sampled run: every instruction is bracketed by a monotonic clock
   pair, with the calibrated probe cost subtracted. Runs once every
   [ph_every] [run_tape]s, so its generic-dispatch slowdown amortizes to
   noise; hit and exec counts stay exact because it maintains them too. *)
let run_tape_timed (t : t) (pf : prof) =
  let n = Array.length t.ins in
  for k = 0 to n - 1 do
    if (not t.activity) || Array.unsafe_get t.dirty k then begin
      if t.activity then begin
        Array.unsafe_set t.dirty k false;
        pf.ph_exec.(k) <- pf.ph_exec.(k) + 1
      end;
      let d = Array.unsafe_get t.dsts k in
      let t0 = Obs.now_ns () in
      let changed = exec_changed t pf k d in
      let t1 = Obs.now_ns () in
      let dt = t1 - t0 - pf.ph_cal in
      if dt > 0 then pf.ph_time.(k) <- pf.ph_time.(k) + dt;
      if changed then begin
        pf.ph_hits.(k) <- pf.ph_hits.(k) + 1;
        if t.activity then mark_readers t d
      end
    end
  done

let run_tape_off (t : t) =
  let n = Array.length t.ins in
  if t.activity then
    for k = 0 to n - 1 do
      if Array.unsafe_get t.dirty k then begin
        Array.unsafe_set t.dirty k false;
        let d = Array.unsafe_get t.dsts k in
        match Array.unsafe_get t.ins k with
        | IBox f ->
            if t.wide.(d) then begin
              let v = f () in
              if not (Bv.equal v t.bvals.(d)) then begin
                t.bvals.(d) <- v;
                mark_readers t d
              end
            end
            else begin
              let v = Bv.to_int_trunc (f ()) land t.masks.(k) in
              if v <> t.ivals.(d) then begin
                t.ivals.(d) <- v;
                mark_readers t d
              end
            end
        | (WMux _ | WCat _ | WDshl _ | WDshr _ | WOr _ | WAnd _ | WXor _) as i ->
            (* in-place update overwrites the old value before it could be
               compared, so conservatively re-dirty all readers *)
            exec_wide t d i;
            mark_readers t d
        | i ->
            let v = exec_value t i land Array.unsafe_get t.masks k in
            if v <> Array.unsafe_get t.ivals d then begin
              Array.unsafe_set t.ivals d v;
              mark_readers t d
            end
      end
    done
  else begin
    (* plain mode is the throughput path: one match per instruction with
       the operator bodies inlined (no [exec_value] call, no second
       dispatch), everything running over hoisted flat arrays *)
    let iv = t.ivals in
    let ins = t.ins and dsts = t.dsts and masks = t.masks in
    for k = 0 to n - 1 do
      let d = Array.unsafe_get dsts k in
      let m = Array.unsafe_get masks k in
      let set v = Array.unsafe_set iv d (v land m) in
      match Array.unsafe_get ins k with
      | ICopy s -> set (Array.unsafe_get iv s)
      | IMux (s, a, b) ->
          set
            (if Array.unsafe_get iv s <> 0 then Array.unsafe_get iv a
             else Array.unsafe_get iv b)
      | INot s -> set (lnot (Array.unsafe_get iv s))
      | IAndr (full, s) -> set (if Array.unsafe_get iv s = full then 1 else 0)
      | IOrr s -> set (if Array.unsafe_get iv s <> 0 then 1 else 0)
      | IXorr s -> set (Bv.popcount_int (Array.unsafe_get iv s) land 1)
      | INeg (sh, s) -> set (-sxr iv sh s)
      | ISext (sh, s) -> set (sxr iv sh s)
      | IShrC (n, s) -> set (Array.unsafe_get iv s lsr n)
      | IShlC (n, s) -> set (Array.unsafe_get iv s lsl n)
      | IAdd (sha, a, shb, b) -> set (sxr iv sha a + sxr iv shb b)
      | ISub (sha, a, shb, b) -> set (sxr iv sha a - sxr iv shb b)
      | IMul (sha, a, shb, b) -> set (sxr iv sha a * sxr iv shb b)
      | IDiv (sha, a, shb, b) ->
          let dv = sxr iv shb b in
          set (if dv = 0 then 0 else sxr iv sha a / dv)
      | IRem (sha, a, shb, b) ->
          let dv = sxr iv shb b in
          set (if dv = 0 then Array.unsafe_get iv a else sxr iv sha a mod dv)
      | ILt (sha, a, shb, b) -> set (if sxr iv sha a < sxr iv shb b then 1 else 0)
      | ILeq (sha, a, shb, b) -> set (if sxr iv sha a <= sxr iv shb b then 1 else 0)
      | IGt (sha, a, shb, b) -> set (if sxr iv sha a > sxr iv shb b then 1 else 0)
      | IGeq (sha, a, shb, b) -> set (if sxr iv sha a >= sxr iv shb b then 1 else 0)
      | IEq (sha, a, shb, b) -> set (if sxr iv sha a = sxr iv shb b then 1 else 0)
      | INeq (sha, a, shb, b) -> set (if sxr iv sha a <> sxr iv shb b then 1 else 0)
      | IAnd (sha, a, shb, b) -> set (sxr iv sha a land sxr iv shb b)
      | IOr (sha, a, shb, b) -> set (sxr iv sha a lor sxr iv shb b)
      | IXor (sha, a, shb, b) -> set (sxr iv sha a lxor sxr iv shb b)
      | ICat (a, wb, b) ->
          set ((Array.unsafe_get iv a lsl wb) lor Array.unsafe_get iv b)
      | IDshl (sha, a, wr, b) ->
          let sh = Array.unsafe_get iv b in
          set (if sh >= wr then 0 else sxr iv sha a lsl sh)
      | IDshr (sha, a, b) ->
          let sh = Array.unsafe_get iv b in
          set (sxr iv sha a asr (if sh > 62 then 62 else sh))
      | IBitsW (lo, w, s) ->
          set (Bv.extract_int (Array.unsafe_get t.bvals s) ~lo ~width:w)
      | IOrrW s -> set (if Bv.is_zero (Array.unsafe_get t.bvals s) then 0 else 1)
      | IAndrW (w, s) ->
          set (if Bv.popcount (Array.unsafe_get t.bvals s) = w then 1 else 0)
      | IXorrW s -> set (Bv.popcount (Array.unsafe_get t.bvals s) land 1)
      | IMemRead (data, a) ->
          let ad = Array.unsafe_get iv a in
          set (if ad < Array.length data then Array.unsafe_get data ad else 0)
      | (WMux _ | WCat _ | WDshl _ | WDshr _ | WOr _ | WAnd _ | WXor _) as i ->
          exec_wide t d i
      | IBox f ->
          if t.wide.(d) then t.bvals.(d) <- f ()
          else set (Bv.to_int_trunc (f ()))
    done
  end;
  t.tape_dirty <- false

(* One branch on [t.prof] per call — the profiler-off cost. *)
let run_tape (t : t) =
  match t.prof with
  | None -> run_tape_off t
  | Some pf ->
      pf.ph_runs <- pf.ph_runs + 1;
      if pf.ph_every > 0 && pf.ph_runs mod pf.ph_every = 0 then
        run_tape_timed t pf
      else run_tape_counts t pf;
      t.tape_dirty <- false

let clock_edge (t : t) =
  if t.tape_dirty then run_tape t;
  (* sample covers, cover-values, stops, prints on the settled tape *)
  for k = 0 to Array.length t.cover_slots - 1 do
    if read_slot_bool t t.cover_slots.(k) then
      t.counters.(k) <- Backend.sat_incr t.counters.(k)
  done;
  for k = 0 to Array.length t.cv_sig - 1 do
    if read_slot_bool t t.cv_en.(k) then begin
      let v = read_slot_int t t.cv_sig.(k) in
      let arr = t.cv_arr.(k) in
      if v < Array.length arr then arr.(v) <- Backend.sat_incr arr.(v)
    end
  done;
  for k = 0 to Array.length t.stop_slots - 1 do
    if read_slot_bool t t.stop_slots.(k) then t.stopped <- true
  done;
  for k = 0 to Array.length t.print_conds - 1 do
    if read_slot_bool t t.print_conds.(k) then begin
      let args = Array.to_list (Array.map (fun s -> read_slot_bv t s) t.print_args.(k)) in
      !Backend.print_sink (Prep.format_print t.print_msgs.(k) args)
    end
  done;
  (* capture register next-values before anything commits (reg-to-reg
     chains and regs fed by sync-read data must see pre-edge values) *)
  for i = 0 to Array.length t.ri_src - 1 do
    t.ri_scratch.(i) <- read_slot_int t t.ri_src.(i)
  done;
  for i = 0 to Array.length t.rb_src - 1 do
    t.rb_scratch.(i) <- read_slot_bv_fresh t t.rb_src.(i)
  done;
  (* memories: writes commit before sync-read data latches (write-first
     read-under-write, matching the interpreter); later ports win *)
  for mi = 0 to Array.length t.mems - 1 do
    let m = t.mems.(mi) in
    let wrote = ref false in
    (match m.store with
    | M_int data ->
        let len = Array.length data in
        for j = 0 to Array.length m.wp_en - 1 do
          if read_slot_bool t m.wp_en.(j) then begin
            wrote := true;
            let a = read_slot_int t m.wp_addr.(j) in
            if a < len then data.(a) <- read_slot_int t m.wp_data.(j)
          end
        done;
        for j = 0 to Array.length m.sr_addr - 1 do
          let a = read_slot_int t m.sr_addr.(j) in
          let v = if a < len then data.(a) else 0 in
          let ds = m.sr_data.(j) in
          if t.activity then begin
            if v <> t.ivals.(ds) then begin
              t.ivals.(ds) <- v;
              mark_readers t ds
            end
          end
          else t.ivals.(ds) <- v
        done
    | M_bv data ->
        let len = Array.length data in
        for j = 0 to Array.length m.wp_en - 1 do
          if read_slot_bool t m.wp_en.(j) then begin
            wrote := true;
            let a = read_slot_int t m.wp_addr.(j) in
            if a < len then data.(a) <- read_slot_bv_fresh t m.wp_data.(j)
          end
        done;
        for j = 0 to Array.length m.sr_addr - 1 do
          let a = read_slot_int t m.sr_addr.(j) in
          let v = if a < len then data.(a) else m.m_zero in
          let ds = m.sr_data.(j) in
          if t.activity then begin
            if not (Bv.equal v t.bvals.(ds)) then begin
              t.bvals.(ds) <- v;
              mark_readers t ds
            end
          end
          else t.bvals.(ds) <- v
        done);
    if t.activity && !wrote then begin
      let cr = m.comb_readers in
      for j = 0 to Array.length cr - 1 do
        t.dirty.(cr.(j)) <- true
      done
    end
  done;
  (* commit registers *)
  for i = 0 to Array.length t.ri_dst - 1 do
    let ds = t.ri_dst.(i) in
    let v = t.ri_scratch.(i) in
    if t.activity then begin
      if v <> t.ivals.(ds) then begin
        t.ivals.(ds) <- v;
        mark_readers t ds
      end
    end
    else t.ivals.(ds) <- v
  done;
  for i = 0 to Array.length t.rb_dst - 1 do
    let ds = t.rb_dst.(i) in
    let v = t.rb_scratch.(i) in
    if t.activity then begin
      if not (Bv.equal v t.bvals.(ds)) then begin
        t.bvals.(ds) <- v;
        mark_readers t ds
      end
    end
    else t.bvals.(ds) <- v
  done;
  t.tape_dirty <- true;
  t.cycle <- t.cycle + 1

let to_backend ~name (t : t) : Backend.t =
  (* pre-resolve input name -> slot so a poke costs one hash lookup; with
     tiny tapes (a few dozen instructions) poking dominates the cycle *)
  let input_slot : (string, int) Hashtbl.t =
    Hashtbl.create (Hashtbl.length t.p.Prep.input_names)
  in
  Hashtbl.iter
    (fun n _ -> Hashtbl.replace input_slot n (Hashtbl.find t.slot_of n))
    t.p.Prep.input_names;
  (* testbench loops poke the same interned name strings every cycle, so a
     tiny physical-equality memo beats re-hashing the string each time *)
  let cache_cap = 32 in
  let cache_keys = Array.make cache_cap "" in
  let cache_slots = Array.make cache_cap 0 in
  let cache_n = ref 0 in
  let find_input pname =
    let n = !cache_n in
    let rec go i =
      if i < n then
        if cache_keys.(i) == pname then cache_slots.(i) else go (i + 1)
      else begin
        match Hashtbl.find_opt input_slot pname with
        | None -> Backend.error "poke: %s is not an input" pname
        | Some s ->
            if n < cache_cap then begin
              cache_keys.(n) <- pname;
              cache_slots.(n) <- s;
              incr cache_n
            end;
            s
      end
    in
    go 0
  in
  Backend.with_telemetry
    {
      Backend.backend_name = name;
      circuit = t.p.Prep.low;
      poke =
        (fun pname v ->
          let s = find_input pname in
              let w = t.widths.(s) in
              if t.wide.(s) then begin
                let v = Bv.extend_u v w in
                if not (Bv.equal t.bvals.(s) v) then begin
                  t.bvals.(s) <- v;
                  if t.activity then mark_readers t s;
                  t.tape_dirty <- true
                end
              end
              else begin
                let vi = Bv.to_int_trunc v land Eval.Int.mask w in
                if vi <> t.ivals.(s) then begin
                  t.ivals.(s) <- vi;
                  if t.activity then mark_readers t s;
                  t.tape_dirty <- true
                end
              end);
      peek =
        (fun pname ->
          if t.tape_dirty then run_tape t;
          match Hashtbl.find_opt t.slot_of pname with
          | Some s -> read_slot_bv_fresh t t.alias.(s)
          | None -> Backend.error "peek: unknown signal %s" pname);
      step =
        (fun n ->
          for _ = 1 to n do
            clock_edge t
          done);
      counts =
        (fun () ->
          let out = Counts.create () in
          Array.iteri (fun k n -> Counts.set out n t.counters.(k)) t.cover_names;
          Array.iteri
            (fun k n ->
              Array.iteri
                (fun v c -> Counts.set out (Sic_coverage.Cover_values.value_key n v) c)
                t.cv_arr.(k))
            t.cv_names;
          out);
      cycles = (fun () -> t.cycle);
      finished = (fun () -> t.stopped);
    }

(** Create the Verilator-analogue backend. With [~builtin_line:true] the
    simulator hard-codes its own line coverage (counters appear alongside
    the pass-based ones, named [l_*] as usual — they {e are} the same
    instrumentation, performed internally, which is the paper's explanation
    for why the overheads match). *)
let create ?builtin_line (c : Circuit.t) : Backend.t =
  to_backend ~name:"compiled" (build ?builtin_line c)

(* Source location of a tape root, through the statement-id -> Info map
   captured at prepare time. *)
let loc_of (t : t) root =
  match Hashtbl.find_opt t.p.Prep.infos root with
  | Some (Info.Pos { file; line; _ }) -> file ^ ":" ^ string_of_int line
  | Some Info.Unknown | None -> "-"

let profile (t : t) : Profile.design_profile option =
  match t.prof with
  | None -> None
  | Some pf ->
      let rows =
        Array.init (Array.length pf.ph_hits) (fun k ->
            {
              Profile.idx = k;
              hits = pf.ph_hits.(k);
              time_ns = pf.ph_time.(k);
              is_root = pf.ph_is_root.(k);
              op = pf.ph_ops.(k);
              root = pf.ph_roots.(k);
              loc = loc_of t pf.ph_roots.(k);
            })
      in
      Some
        {
          Profile.design = t.p.Prep.low.Circuit.circuit_name;
          runs = pf.ph_runs;
          cycles = t.cycle;
          rows;
        }

(* Per-tape-position execution counts: the dirty-flag scheduler's exact
   re-evaluation counts ([[||]] when not profiling). Live-only
   diagnostic — excluded from the artifact because re-evaluation counts
   are scheduler-shaped, not value-shaped. *)
let exec_counts (t : t) : int array =
  match t.prof with None -> [||] | Some pf -> Array.copy pf.ph_exec
