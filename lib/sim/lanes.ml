(** Bit-parallel lane engine, bit-sliced: up to 62 independent stimulus
    seeds per tape pass (see the interface for the design story). Decodes
    the same shared {!Tape} as {!Compiled}, but transposed: every slot
    the decoder can slice — width-1 signals {e and} wider ones — is
    stored as one packed [int] {e plane} per bit, where bit [l] of a
    plane is lane [l]'s value of that bit. Structural instructions
    (copies, pads, shifts by constants, bit extracts, concatenations,
    sign extensions) resolve at decode time to {e plane aliasing} — the
    destination's plane list points at the source's planes, zero runtime
    cost — while compute instructions (mux, add, sub, compares, bitwise
    ops, reductions) run as whole-plane kernels, a handful of bitwise
    ops per plane advancing all lanes at once. Slots the slicer cannot
    take (division, multiplication, dynamic shifts, memory ports) fall
    back to lane-strided [int] entries or per-lane [Bv.t] rows executed
    by a per-lane loop with the scalar engine's exact semantics; a
    fixpoint keeps the two worlds apart so no kernel ever crosses
    representations. The per-lane value stream is identical to a solo
    {!Compiled} run under the same stimulus, which is what the
    differential suites and the fleet's merge path rely on.

    Invariants: packed planes are always masked to [lane_mask]; plane 0
    is constant all-zeros and plane 1 constant all-ones (literal slots
    alias into them bit by bit, so they must never be written); wide
    rows are rebind-only (no [Bv.t] buffer is ever mutated in place), so
    rows, register scratch and memory stores may freely share objects. *)

open Sic_ir
module Bv = Sic_bv.Bv
module Counts = Sic_coverage.Counts
module Prep = Backend.Prep

(* Lane instructions. [V*] are the 1-bit peepholes: operands and
   destination are PHYSICAL PLANE indices, one bitwise op per 62 lanes.
   [L*] are the multi-plane kernels: operand arrays hold physical plane
   indices pre-extended at decode time to the width the kernel needs
   (zero-extension aliases the constant-zero plane, sign-extension
   replicates the operand's top plane), and the destination is a
   contiguous block of fresh planes starting at the instruction's [dst].
   [S*] mirror the scalar engine's narrow instruction set with an
   internal lane loop over strided storage ([SBox] is the per-lane boxed
   fallback over {!Eval} for wide rows); their operands are SLOTS. The
   1-bit compare kernels are the unsigned patterns; signed 1-bit
   compares decode to the swapped constructor (on [{0, -1}] signed
   order is reversed). *)
type lins =
  | VMux of int * int * int  (** sel, then, else *)
  | VNot of int
  | VAnd of int * int
  | VOr of int * int
  | VXor of int * int
  | VNxor of int * int  (** eq *)
  | VAndn of int * int  (** [a land lnot b]: unsigned [a > b] *)
  | VOrn of int * int  (** [(a lor lnot b) land lm]: unsigned [a >= b] *)
  | LMux of int * int array * int array  (** sel plane, then, else *)
  | LMuxC of int * int * int * int
      (** sel plane, then base, else base, width: both operand blocks
          contiguous — no index-array loads on the hottest kernel *)
  | LNot of int array
  | LAnd of int array * int array
  | LOr of int array * int array
  | LXor of int array * int array
  | LAdd of int array * int array
  | LSub of int array * int array
  | LNeg of int array
  | LEq of int array * int array  (** extended to compare width W *)
  | LNeq of int array * int array
  | LLt of int array * int array  (** signed ripple compare at W *)
  | LLeq of int array * int array
  | LGt of int array * int array
  | LGeq of int array * int array
  | LAndr of int array
  | LOrr of int array
  | LXorr of int array
  | SCopy of int
  | SMux of int * int * int
  | SNot of int
  | SAndr of int * int  (** full mask of the operand width, src *)
  | SOrr of int
  | SXorr of int
  | SNeg of int * int  (** sext shift, src *)
  | SSext of int * int
  | SShrC of int * int
  | SShlC of int * int
  | SAdd of int * int * int * int  (** sha, a, shb, b *)
  | SSub of int * int * int * int
  | SMul of int * int * int * int
  | SDiv of int * int * int * int
  | SRem of int * int * int * int
  | SLt of int * int * int * int
  | SLeq of int * int * int * int
  | SGt of int * int * int * int
  | SGeq of int * int * int * int
  | SEq of int * int * int * int
  | SNeq of int * int * int * int
  | SAnd of int * int * int * int
  | SOr of int * int * int * int
  | SXor of int * int * int * int
  | SCat of int * int * int  (** a, width of b, b *)
  | SDshl of int * int * int * int  (** sha, a, result width, shift slot *)
  | SDshr of int * int * int  (** sha, a, shift slot *)
  | SMemRead of int * int  (** memory index, addr slot *)
  | SBox of (int -> Bv.t)  (** lane -> value *)

(* Per-lane memory stores, lane-major so one lane's image is contiguous. *)
type lstore = LM_int of int array array | LM_bv of Bv.t array array

(* Pre-resolved stimulus plan for one data input, in port order: how
   [run_random] turns each lane's raw 31-bit draws into storage. *)
type iplan =
  | Pw1 of int  (** 1-bit input: its plane — draw and deposit fused *)
  | Pplane of int array * int  (** sliced input: planes, width *)
  | Pstrided of int * int  (** scalar narrow input: slot, width *)
  | Prows of int * int  (** scalar wide input: slot, width *)

type lmem = {
  lm_zero : Bv.t;
  lstore : lstore;
  lwp_en : int array;
  lwp_addr : int array;
  lwp_data : int array;
  lsr_addr : int array;  (** sync read ports: addr slot *)
  lsr_data : int array;  (** sync read ports: data slot (state) *)
  lm_power_on : lstore;  (** one lane's power-on image, for [restore] *)
}

type t = {
  p : Prep.prepared;
  slot_of : (string, int) Hashtbl.t;
  alias : int array;
  widths : int array;  (** per slot *)
  planes_of : int array array;  (** per slot: physical planes, [[||]] if
                                    the slot is strided or wide *)
  p1 : int array;  (** per slot: the plane of a width-1 slot, else -1 *)
  wide : bool array;  (** per slot: bad and beyond {!Eval.Int.max_width} *)
  lanes : int;
  lane_mask : int;
  pv : int array;  (** physical planes, always masked to [lane_mask];
                       [pv.(0) = 0] and [pv.(1) = lane_mask] forever *)
  sv : int array;  (** strided narrow values: [slot * lanes + lane] *)
  wv : Bv.t array array;  (** wide rows: [wv.(slot).(lane)], rebind-only *)
  bad_presets : (int * Bv.t) list;
      (** literal slots in strided or wide storage, re-applied by [restore] *)
  ins : lins array;  (** compacted: aliases don't appear *)
  dsts : int array;  (** per instruction: destination slot ([S*]) or
                         base physical plane ([V*]/[L*]) *)
  masks : int array;  (** per instruction: scalar destination mask *)
  n_alias : int;  (** decode census over the tape's instructions: *)
  n_vec : int;  (** resolved to aliasing / plane kernels / lane loops *)
  n_scalar : int;
  input_slot : (string, int) Hashtbl.t;
  cover_names : string array;
  cover_slots : int array;
  counters : int array;  (** (cover, lane) -> count, cover-major *)
  cv_names : string array;
  cv_sig : int array;
  cv_en : int array;
  cv_arr : int array array array;  (** cover-value -> lane -> value bins *)
  stop_slots : int array;
  print_conds : int array;
  print_msgs : string array;
  print_args : int array array;
  rs_dst : int array;  (** plane-stored registers, flattened to physical
                           planes: whole-plane capture and commit *)
  rs_src : int array;
  rs_scratch : int array;
  ri_dst : int array;  (** strided registers, [reg * lanes + lane] *)
  ri_src : int array;
  ri_scratch : int array;
  rb_dst : int array;  (** wide registers *)
  rb_src : int array;
  rb_scratch : Bv.t array;
  mems : lmem array;
  iplan : iplan array;  (** data inputs in port order *)
  rowsa : int array array;  (** per input limb: 32x32 transpose block
                                holding lanes 0-31's draws as rows *)
  rowsb : int array array;  (** same for lanes 32-61 *)
  mutable tape_dirty : bool;
  mutable cycle : int;
  mutable stopped_mask : int;  (** bit [l]: a stop fired in lane [l] *)
}

let lanes (t : t) = t.lanes

(* Per-lane slot accessors (the cold, general versions; the tape loop
   inlines its own over hoisted arrays). A multi-bit plane-stored slot
   is gathered/scattered bit by bit — peeks, prints and pokes only. *)
let read_lane_nat (t : t) l s =
  let p = t.p1.(s) in
  if p >= 0 then (t.pv.(p) lsr l) land 1
  else begin
    let ps = t.planes_of.(s) in
    if Array.length ps = 0 then t.sv.((s * t.lanes) + l)
    else begin
      let v = ref 0 in
      for j = Array.length ps - 1 downto 0 do
        v := (!v lsl 1) lor ((t.pv.(ps.(j)) lsr l) land 1)
      done;
      !v
    end
  end

let write_lane_nat (t : t) l d v =
  let b = 1 lsl l in
  let p = t.p1.(d) in
  if p >= 0 then t.pv.(p) <- (t.pv.(p) land lnot b) lor ((v land 1) lsl l)
  else begin
    let ps = t.planes_of.(d) in
    if Array.length ps = 0 then t.sv.((d * t.lanes) + l) <- v
    else
      Array.iteri
        (fun j p ->
          t.pv.(p) <- (t.pv.(p) land lnot b) lor (((v lsr j) land 1) lsl l))
        ps
  end

let read_lane_int (t : t) l s =
  if t.wide.(s) then Bv.to_int_trunc t.wv.(s).(l) else read_lane_nat t l s

let read_lane_bool (t : t) l s =
  if t.wide.(s) then not (Bv.is_zero t.wv.(s).(l))
  else begin
    let ps = t.planes_of.(s) in
    if Array.length ps = 0 then t.sv.((s * t.lanes) + l) <> 0
    else begin
      let fired = ref false in
      Array.iter (fun p -> if (t.pv.(p) lsr l) land 1 <> 0 then fired := true) ps;
      !fired
    end
  end

let read_lane_bv (t : t) l s =
  if t.wide.(s) then t.wv.(s).(l)
  else begin
    let w = t.widths.(s) in
    let ps = t.planes_of.(s) in
    if Array.length ps = 0 || w <= 62 then
      Bv.of_int62 ~width:w (read_lane_nat t l s)
    else begin
      (* wide plane-stored slot: gather 31-bit chunks *)
      let b = Bv.zero w in
      let lo = ref 0 in
      while !lo < w do
        let wl = min 31 (w - !lo) in
        let c = ref 0 in
        for j = wl - 1 downto 0 do
          c := (!c lsl 1) lor ((t.pv.(ps.(!lo + j)) lsr l) land 1)
        done;
        Bv.or_int_into ~dst:b ~lo:!lo !c;
        lo := !lo + 31
      done;
      b
    end
  end

(* Literal slots in strided or wide storage keep the scalar engine's
   initialisation: every lane holds the literal. *)
let apply_presets ~lanes ~widths ~wide sv wv presets =
  List.iter
    (fun (s, v) ->
      if wide.(s) then Array.fill wv.(s) 0 lanes (Bv.extend_u v widths.(s))
      else Array.fill sv (s * lanes) lanes (Bv.to_int_trunc v land Eval.Int.mask widths.(s)))
    presets

let build ?(lanes = 62) (c : Circuit.t) : t =
  let lanes = max 1 (min 62 lanes) in
  let lane_mask = (1 lsl lanes) - 1 in
  let tp = Tape.build c in
  let p = tp.Tape.p in
  let widths = tp.Tape.widths in
  let nslots = Array.length widths in
  (* ------------------------------------------------------------------ *)
  (* Badness fixpoint: which multi-bit slots must stay in scalar        *)
  (* (strided / row) storage. Width-1 slots are always planes — both    *)
  (* worlds can read and write a single plane, so they never poison     *)
  (* anything. A slot is bad when (a) it has width 0, (b) it feeds or   *)
  (* is fed by an instruction the slicer has no kernel for (division,   *)
  (* remainder, multiplication, dynamic shifts, memory reads, wide mux  *)
  (* selectors), (c) it is a memory port or cover-value slot (per-lane  *)
  (* loops over scalar reads), or (d) badness reaches it through an     *)
  (* instruction or register whose other side is bad — a kernel never   *)
  (* mixes representations.                                             *)
  let bad = Array.make nslots false in
  let changed = ref true in
  let mark s =
    if widths.(s) <> 1 && not bad.(s) then begin
      bad.(s) <- true;
      changed := true
    end
  in
  Array.iteri (fun s w -> if w = 0 then bad.(s) <- true) widths;
  Array.iter
    (fun (m : Tape.mem) ->
      Array.iter mark m.Tape.wp_en;
      Array.iter mark m.Tape.wp_addr;
      Array.iter mark m.Tape.wp_data;
      Array.iter mark m.Tape.sr_addr;
      Array.iter mark m.Tape.sr_data)
    tp.Tape.mems;
  Array.iter mark tp.Tape.cv_sig;
  Array.iter mark tp.Tape.cv_en;
  let scalar_kind (pr : Tape.proto) =
    match pr.Tape.pins with
    | Tape.PMemRead _ -> true
    | Tape.PMux (ss, _, _) -> widths.(ss) <> 1
    | Tape.PBinop ((Expr.Div | Expr.Rem | Expr.Dshl | Expr.Dshr), _, _, _, _) ->
        true
    | Tape.PBinop (Expr.Mul, _, _, sa, sb) ->
        not (widths.(pr.Tape.pdst) = 1 && widths.(sa) = 1 && widths.(sb) = 1)
    | _ -> false
  in
  Array.iter
    (fun (pr : Tape.proto) ->
      if scalar_kind pr then begin
        mark pr.Tape.pdst;
        List.iter mark pr.Tape.pdeps
      end)
    tp.Tape.protos;
  while !changed do
    changed := false;
    Array.iter
      (fun (pr : Tape.proto) ->
        let infected =
          bad.(pr.Tape.pdst) || List.exists (fun s -> bad.(s)) pr.Tape.pdeps
        in
        if infected then begin
          mark pr.Tape.pdst;
          List.iter mark pr.Tape.pdeps
        end)
      tp.Tape.protos;
    Array.iter
      (fun (d, s, w) ->
        if w <> 1 && (bad.(d) || bad.(s)) then begin
          mark d;
          mark s
        end)
      tp.Tape.regs
  done;
  (* storage classes *)
  let is_plane s = not bad.(s) in
  let wide = Array.init nslots (fun s -> bad.(s) && not (Eval.Int.fits widths.(s))) in
  let sv = Array.make (nslots * lanes) 0 in
  let wv =
    Array.init nslots (fun s ->
        if wide.(s) then Array.make lanes (Bv.zero widths.(s)) else [||])
  in
  (* ------------------------------------------------------------------ *)
  (* Physical plane allocation. Plane 0 is constant zero, plane 1       *)
  (* constant all-ones; literal (preset) plane slots alias into them    *)
  (* bit by bit. Plane slots no instruction produces — inputs, register *)
  (* state, floating wires — get fresh zero blocks up front; produced   *)
  (* slots are assigned during decode (aliased when the instruction is  *)
  (* structural, fresh when it computes).                               *)
  let zplane = 0 and oplane = 1 in
  let nplanes = ref 2 in
  let fresh_block w =
    let base = !nplanes in
    nplanes := !nplanes + w;
    base
  in
  let planes_of = Array.make nslots [||] in
  let p1 = Array.make nslots (-1) in
  let assign s ps =
    planes_of.(s) <- ps;
    if widths.(s) = 1 then p1.(s) <- ps.(0)
  in
  let preset_bv = Array.make nslots None in
  List.iter (fun (s, v) -> preset_bv.(s) <- Some v) tp.Tape.presets;
  Array.iteri
    (fun s v ->
      match v with
      | Some v when is_plane s ->
          assign s
            (Array.init widths.(s) (fun j ->
                 if Bv.bit v j then oplane else zplane))
      | _ -> ())
    preset_bv;
  let produced = Array.make nslots false in
  Array.iter (fun (pr : Tape.proto) -> produced.(pr.Tape.pdst) <- true) tp.Tape.protos;
  Array.iteri
    (fun s w ->
      if is_plane s && (not produced.(s)) && Array.length planes_of.(s) = 0
      then begin
        let base = fresh_block w in
        assign s (Array.init w (fun j -> base + j))
      end)
    widths;
  let bad_presets = List.filter (fun (s, _) -> bad.(s)) tp.Tape.presets in
  apply_presets ~lanes ~widths ~wide sv wv bad_presets;
  (* per-lane memory images, each lane starting from the power-on data *)
  let mems =
    Array.map
      (fun (m : Tape.mem) ->
        let store =
          if Eval.Int.fits m.Tape.m_width then
            LM_int
              (Array.init lanes (fun _ ->
                   Array.init m.Tape.m_depth (fun i ->
                       Bv.to_int_trunc m.Tape.m_init.(i))))
          else LM_bv (Array.init lanes (fun _ -> Array.copy m.Tape.m_init))
        in
        let lm_power_on =
          match store with
          | LM_int d -> LM_int [| Array.copy d.(0) |]
          | LM_bv d -> LM_bv [| Array.copy d.(0) |]
        in
        {
          lm_zero = Bv.zero m.Tape.m_width;
          lstore = store;
          lwp_en = m.Tape.wp_en;
          lwp_addr = m.Tape.wp_addr;
          lwp_data = m.Tape.wp_data;
          lsr_addr = m.Tape.sr_addr;
          lsr_data = m.Tape.sr_data;
          lm_power_on;
        })
      tp.Tape.mems
  in
  (* ------------------------------------------------------------------ *)
  (* Decode, in topological order. Good instructions either alias the   *)
  (* destination's planes onto the sources' (structural ops: free) or   *)
  (* emit a plane kernel over a fresh destination block; bad ones       *)
  (* replicate the scalar engine's decode exactly (same guards, same    *)
  (* quirks), reading width-1 operands through the [p1] indirection.    *)
  let pvr = ref [||] in
  let rd_l l s =
    let p = p1.(s) in
    if p >= 0 then ((!pvr).(p) lsr l) land 1 else sv.((s * lanes) + l)
  in
  let rd_bv l s =
    if wide.(s) then wv.(s).(l) else Bv.of_int62 ~width:widths.(s) (rd_l l s)
  in
  let rdb l s =
    if wide.(s) then not (Bv.is_zero wv.(s).(l)) else rd_l l s <> 0
  in
  let sx ty = if Ty.is_signed ty then 63 - Ty.width ty else 0 in
  let n_alias = ref 0 and n_vec = ref 0 and n_scalar = ref 0 in
  let rev_ins = ref [] in
  let alias d ps =
    incr n_alias;
    assign d ps
  in
  let fresh d =
    let base = fresh_block widths.(d) in
    assign d (Array.init widths.(d) (fun j -> base + j));
    base
  in
  let emit_v d i =
    incr n_vec;
    rev_ins := (i, fresh d, 0) :: !rev_ins
  in
  let emit_s d i =
    incr n_scalar;
    if widths.(d) = 1 && Array.length planes_of.(d) = 0 then ignore (fresh d);
    rev_ins := (i, d, Eval.Int.mask widths.(d)) :: !rev_ins
  in
  (* operand planes extended to [n]: zero-extension aliases the zero
     plane, sign-extension replicates the raw top bit's plane *)
  let ext ~signed s n =
    let ps = planes_of.(s) in
    let w = Array.length ps in
    if w = n then ps
    else if n < w then Array.sub ps 0 n
    else
      Array.init n (fun j ->
          if j < w then ps.(j)
          else if signed && w > 0 then ps.(w - 1)
          else zplane)
  in
  Array.iter
    (fun (pr : Tape.proto) ->
      let d = pr.Tape.pdst in
      let wd = widths.(d) in
      let good =
        (not (scalar_kind pr))
        && (not bad.(d))
        && List.for_all (fun s -> not bad.(s)) pr.Tape.pdeps
      in
      if good then begin
        let w1 s = widths.(s) = 1 in
        let contig (a : int array) =
          let ok = ref true in
          for j = 1 to Array.length a - 1 do
            if a.(j) <> a.(0) + j then ok := false
          done;
          !ok
        in
        match pr.Tape.pins with
        | Tape.PCopy s -> alias d (ext ~signed:false s wd)
        | Tape.PMux (ss, sa, sb) ->
            if wd = 1 && w1 sa && w1 sb then
              emit_v d (VMux (p1.(ss), p1.(sa), p1.(sb)))
            else
              let pa = ext ~signed:false sa wd
              and pb = ext ~signed:false sb wd in
              if contig pa && contig pb then
                emit_v d (LMuxC (p1.(ss), pa.(0), pb.(0), wd))
              else emit_v d (LMux (p1.(ss), pa, pb))
        | Tape.PUnop (op, ta, sa) -> (
            match op with
            | Expr.Not ->
                if wd = 1 && w1 sa then emit_v d (VNot p1.(sa))
                else emit_v d (LNot (ext ~signed:false sa wd))
            | Expr.Andr ->
                (* 1-bit reductions are the identity *)
                if w1 sa then alias d planes_of.(sa)
                else emit_v d (LAndr planes_of.(sa))
            | Expr.Orr ->
                if w1 sa then alias d planes_of.(sa)
                else emit_v d (LOrr planes_of.(sa))
            | Expr.Xorr ->
                if w1 sa then alias d planes_of.(sa)
                else emit_v d (LXorr planes_of.(sa))
            | Expr.Neg ->
                (* 1-bit negate is the identity under the destination
                   mask (-0 = 0, -1 = ...1) *)
                if wd = 1 && w1 sa then alias d planes_of.(sa)
                else emit_v d (LNeg (ext ~signed:(Ty.is_signed ta) sa wd))
            | Expr.Cvt | Expr.AsUInt | Expr.AsSInt ->
                alias d (ext ~signed:false sa wd))
        | Tape.PIntop (op, n, ta, sa) -> (
            let w = Ty.width ta in
            let ws = widths.(sa) in
            let ps = planes_of.(sa) in
            let shifted_right sh =
              Array.init wd (fun j ->
                  if j + sh < ws then ps.(j + sh) else zplane)
            in
            match op with
            | Expr.Pad ->
                if Ty.is_signed ta && n > w then alias d (ext ~signed:true sa wd)
                else alias d (ext ~signed:false sa wd)
            | Expr.Shl ->
                alias d
                  (Array.init wd (fun j ->
                       if j < n then zplane
                       else if j - n < ws then ps.(j - n)
                       else zplane))
            | Expr.Shr ->
                alias d
                  (shifted_right (if Ty.is_signed ta then min n (w - 1) else n))
            | Expr.Head -> alias d (shifted_right (w - n))
            | Expr.Tail -> alias d (ext ~signed:false sa wd))
        | Tape.PBits (_, lo, sa) ->
            let ws = widths.(sa) and ps = planes_of.(sa) in
            alias d
              (Array.init wd (fun j ->
                   if lo + j < ws then ps.(lo + j) else zplane))
        | Tape.PBinop (op, ta, tb, sa, sb) -> (
            let sga = Ty.is_signed ta and sgb = Ty.is_signed tb in
            let all1 = wd = 1 && w1 sa && w1 sb in
            (* compare/equality width: both operands exact as signed
               W-bit values, so one signed ripple at W is always right *)
            let cw =
              max
                (widths.(sa) + if sga then 0 else 1)
                (widths.(sb) + if sgb then 0 else 1)
            in
            let ea () = ext ~signed:sga sa cw and eb () = ext ~signed:sgb sb cw in
            match op with
            | Expr.Add | Expr.Sub ->
                if all1 then emit_v d (VXor (p1.(sa), p1.(sb)))
                else
                  let a = ext ~signed:sga sa wd and b = ext ~signed:sgb sb wd in
                  emit_v d (if op = Expr.Add then LAdd (a, b) else LSub (a, b))
            | Expr.Mul ->
                (* only the all-1-bit product is good (see scalar_kind) *)
                emit_v d (VAnd (p1.(sa), p1.(sb)))
            | Expr.And ->
                if all1 then emit_v d (VAnd (p1.(sa), p1.(sb)))
                else emit_v d (LAnd (ext ~signed:sga sa wd, ext ~signed:sgb sb wd))
            | Expr.Or ->
                if all1 then emit_v d (VOr (p1.(sa), p1.(sb)))
                else emit_v d (LOr (ext ~signed:sga sa wd, ext ~signed:sgb sb wd))
            | Expr.Xor ->
                if all1 then emit_v d (VXor (p1.(sa), p1.(sb)))
                else emit_v d (LXor (ext ~signed:sga sa wd, ext ~signed:sgb sb wd))
            | Expr.Eq ->
                if all1 then emit_v d (VNxor (p1.(sa), p1.(sb)))
                else emit_v d (LEq (ea (), eb ()))
            | Expr.Neq ->
                if all1 then emit_v d (VXor (p1.(sa), p1.(sb)))
                else emit_v d (LNeq (ea (), eb ()))
            (* signed order on {0, -1} is the reverse of unsigned on
               {0, 1}, so signed 1-bit compares swap the kernel *)
            | Expr.Lt ->
                if all1 && sga = sgb then
                  emit_v d
                    (if sga then VAndn (p1.(sa), p1.(sb))
                     else VAndn (p1.(sb), p1.(sa)))
                else emit_v d (LLt (ea (), eb ()))
            | Expr.Leq ->
                if all1 && sga = sgb then
                  emit_v d
                    (if sga then VOrn (p1.(sa), p1.(sb))
                     else VOrn (p1.(sb), p1.(sa)))
                else emit_v d (LLeq (ea (), eb ()))
            | Expr.Gt ->
                if all1 && sga = sgb then
                  emit_v d
                    (if sga then VAndn (p1.(sb), p1.(sa))
                     else VAndn (p1.(sa), p1.(sb)))
                else emit_v d (LGt (ea (), eb ()))
            | Expr.Geq ->
                if all1 && sga = sgb then
                  emit_v d
                    (if sga then VOrn (p1.(sb), p1.(sa))
                     else VOrn (p1.(sa), p1.(sb)))
                else emit_v d (LGeq (ea (), eb ()))
            | Expr.Cat ->
                let wb = Ty.width tb in
                let wsa = widths.(sa)
                and wsb = widths.(sb)
                and pa = planes_of.(sa)
                and pb = planes_of.(sb) in
                alias d
                  (Array.init wd (fun j ->
                       if j < wb then if j < wsb then pb.(j) else zplane
                       else if j - wb < wsa then pa.(j - wb)
                       else zplane))
            | Expr.Div | Expr.Rem | Expr.Dshl | Expr.Dshr ->
                assert false (* scalar_kind *))
        | Tape.PMemRead _ -> assert false (* scalar_kind *)
      end
      else begin
        let narrow s = not wide.(s) in
        let base =
          match pr.Tape.pins with
          | Tape.PCopy s ->
              if narrow d && narrow s then SCopy s
              else SBox (fun l -> rd_bv l s)
          | Tape.PMux (ss, sa, sb) ->
              if narrow d && narrow ss && narrow sa && narrow sb then
                SMux (ss, sa, sb)
              else SBox (fun l -> if rdb l ss then rd_bv l sa else rd_bv l sb)
          | Tape.PUnop (op, ta, sa) ->
              if narrow d && narrow sa then begin
                let w = Ty.width ta in
                match op with
                | Expr.Not -> SNot sa
                | Expr.Andr ->
                    (* zero-width reduction is constant false *)
                    if w = 0 then SShrC (62, sa)
                    else SAndr (Eval.Int.mask w, sa)
                | Expr.Orr -> SOrr sa
                | Expr.Xorr -> SXorr sa
                | Expr.Neg -> SNeg (sx ta, sa)
                | Expr.Cvt | Expr.AsUInt | Expr.AsSInt -> SCopy sa
              end
              else SBox (fun l -> Eval.unop op ~ta (rd_bv l sa))
          | Tape.PBinop (op, ta, tb, sa, sb) ->
              if narrow d && narrow sa && narrow sb then begin
                let sha = sx ta and shb = sx tb in
                match op with
                | Expr.Add -> SAdd (sha, sa, shb, sb)
                | Expr.Sub -> SSub (sha, sa, shb, sb)
                | Expr.Mul -> SMul (sha, sa, shb, sb)
                | Expr.Div -> SDiv (sha, sa, shb, sb)
                | Expr.Rem -> SRem (sha, sa, shb, sb)
                | Expr.Lt -> SLt (sha, sa, shb, sb)
                | Expr.Leq -> SLeq (sha, sa, shb, sb)
                | Expr.Gt -> SGt (sha, sa, shb, sb)
                | Expr.Geq -> SGeq (sha, sa, shb, sb)
                | Expr.Eq -> SEq (sha, sa, shb, sb)
                | Expr.Neq -> SNeq (sha, sa, shb, sb)
                | Expr.And -> SAnd (sha, sa, shb, sb)
                | Expr.Or -> SOr (sha, sa, shb, sb)
                | Expr.Xor -> SXor (sha, sa, shb, sb)
                | Expr.Cat -> SCat (sa, Ty.width tb, sb)
                | Expr.Dshl ->
                    SDshl (sha, sa, Ty.width ta + (1 lsl Ty.width tb) - 1, sb)
                | Expr.Dshr -> SDshr (sha, sa, sb)
              end
              else SBox (fun l -> Eval.binop op ~ta ~tb (rd_bv l sa) (rd_bv l sb))
          | Tape.PIntop (op, n, ta, sa) ->
              if narrow d && narrow sa then begin
                let w = Ty.width ta in
                match op with
                | Expr.Pad ->
                    if Ty.is_signed ta && n > w then SSext (63 - w, sa)
                    else SCopy sa
                | Expr.Shl -> SShlC (n, sa)
                | Expr.Shr ->
                    SShrC
                      ((if Ty.is_signed ta then min n (w - 1) else min n 62), sa)
                | Expr.Head -> SShrC (w - n, sa)
                | Expr.Tail -> SCopy sa (* destination mask truncates *)
              end
              else SBox (fun l -> Eval.intop op n ~ta (rd_bv l sa))
          | Tape.PBits (hi, lo, sa) ->
              if narrow d && narrow sa then SShrC (lo, sa)
              else SBox (fun l -> Eval.bits ~hi ~lo (rd_bv l sa))
          | Tape.PMemRead (mi, ai) ->
              if narrow ai then SMemRead (mi, ai)
              else
                let mm = mems.(mi) in
                SBox
                  (fun l ->
                    let a = Bv.to_int_trunc wv.(ai).(l) in
                    match mm.lstore with
                    | LM_int data ->
                        Bv.of_int62 ~width:(Bv.width mm.lm_zero)
                          (if a < Array.length data.(l) then data.(l).(a) else 0)
                    | LM_bv data ->
                        if a < Array.length data.(l) then data.(l).(a)
                        else mm.lm_zero)
        in
        emit_s d base
      end)
    tp.Tape.protos;
  (* registers by storage class; plane-stored state (1-bit or sliced)
     captures and commits whole planes *)
  let reg_list = Array.to_list tp.Tape.regs in
  let is_rs (d, s, _) = (not bad.(d)) && not bad.(s) in
  let rs = List.filter is_rs reg_list in
  let rest = List.filter (fun r -> not (is_rs r)) reg_list in
  let ri = List.filter (fun (_, _, w) -> Eval.Int.fits w) rest in
  let rb = List.filter (fun (_, _, w) -> not (Eval.Int.fits w)) rest in
  let rs_dst = Array.concat (List.map (fun (d, _, _) -> planes_of.(d)) rs) in
  let rs_src = Array.concat (List.map (fun (_, s, _) -> planes_of.(s)) rs) in
  let pv = Array.make !nplanes 0 in
  pv.(oplane) <- lane_mask;
  pvr := pv;
  let ins_l = List.rev !rev_ins in
  let input_slot : (string, int) Hashtbl.t =
    Hashtbl.create (Hashtbl.length p.Prep.input_names)
  in
  Hashtbl.iter
    (fun n _ -> Hashtbl.replace input_slot n (Hashtbl.find tp.Tape.slot_of n))
    p.Prep.input_names;
  let max_limbs =
    Hashtbl.fold
      (fun _ s acc -> max acc ((widths.(s) + 30) / 31))
      input_slot 1
  in
  (* pre-resolve the stimulus plan (data inputs in port order, matching
     Backend.random_stimulus) so run_random's cycle loop does no lookups *)
  let iplan =
    let m = Circuit.main p.Prep.low in
    List.filter_map
      (fun (port : Circuit.port) ->
        match port.Circuit.dir with
        | Circuit.Input
          when port.Circuit.port_name <> "clock"
               && port.Circuit.port_name <> "reset" ->
            let s = Hashtbl.find input_slot port.Circuit.port_name in
            let w = Ty.width port.Circuit.port_ty in
            Some
              (if Array.length planes_of.(s) > 0 then
                 if w = 1 then Pw1 planes_of.(s).(0)
                 else Pplane (planes_of.(s), w)
               else if bad.(s) && not (Eval.Int.fits w) then Prows (s, w)
               else Pstrided (s, w))
        | Circuit.Input | Circuit.Output -> None)
      m.Circuit.ports
    |> Array.of_list
  in
  {
    p;
    slot_of = tp.Tape.slot_of;
    alias = tp.Tape.alias;
    widths;
    planes_of;
    p1;
    wide;
    lanes;
    lane_mask;
    pv;
    sv;
    wv;
    bad_presets;
    ins = Array.of_list (List.map (fun (i, _, _) -> i) ins_l);
    dsts = Array.of_list (List.map (fun (_, d, _) -> d) ins_l);
    masks = Array.of_list (List.map (fun (_, _, m) -> m) ins_l);
    n_alias = !n_alias;
    n_vec = !n_vec;
    n_scalar = !n_scalar;
    input_slot;
    cover_names = tp.Tape.cover_names;
    cover_slots = tp.Tape.cover_slots;
    counters = Array.make (Array.length tp.Tape.cover_names * lanes) 0;
    cv_names = tp.Tape.cv_names;
    cv_sig = tp.Tape.cv_sig;
    cv_en = tp.Tape.cv_en;
    cv_arr =
      Array.map
        (fun w -> Array.init lanes (fun _ -> Array.make (1 lsl min w 20) 0))
        tp.Tape.cv_widths;
    stop_slots = tp.Tape.stop_slots;
    print_conds = tp.Tape.print_conds;
    print_msgs = tp.Tape.print_msgs;
    print_args = tp.Tape.print_args;
    rs_dst;
    rs_src;
    rs_scratch = Array.make (Array.length rs_dst) 0;
    ri_dst = Array.of_list (List.map (fun (d, _, _) -> d) ri);
    ri_src = Array.of_list (List.map (fun (_, s, _) -> s) ri);
    ri_scratch = Array.make (List.length ri * lanes) 0;
    rb_dst = Array.of_list (List.map (fun (d, _, _) -> d) rb);
    rb_src = Array.of_list (List.map (fun (_, s, _) -> s) rb);
    rb_scratch = Array.make (List.length rb * lanes) (Bv.zero 1);
    mems;
    iplan;
    rowsa = Array.init max_limbs (fun _ -> Array.make 32 0);
    rowsb = Array.init max_limbs (fun _ -> Array.make 32 0);
    tape_dirty = true;
    cycle = 0;
    stopped_mask = 0;
  }

let vectorized_fraction (t : t) : float =
  let n = t.n_alias + t.n_vec + t.n_scalar in
  if n = 0 then 1.0
  else float_of_int (t.n_alias + t.n_vec) /. float_of_int n

let stats (t : t) : string =
  let n = t.n_alias + t.n_vec + t.n_scalar in
  Printf.sprintf
    "%d instructions (%d aliased, %d plane-kernel, %d per-lane), %d slots \
     over %d planes, %d lanes"
    n t.n_alias t.n_vec t.n_scalar (Array.length t.widths)
    (Array.length t.pv) t.lanes

(* One settle pass: every lane of every slot updated in topological
   order. Plane kernels are a few bitwise ops per plane for all lanes at
   once (aliased instructions never appear — they cost nothing); scalar
   instructions loop lanes with the scalar engine's exact semantics,
   reading width-1 slots through the [p1] plane indirection. *)
let run_tape (t : t) =
  let lanes = t.lanes and lm = t.lane_mask in
  let pv = t.pv and sv = t.sv and p1 = t.p1 and wide = t.wide in
  let ins = t.ins and dsts = t.dsts and masks = t.masks in
  let rd l s =
    let p = Array.unsafe_get p1 s in
    if p >= 0 then (Array.unsafe_get pv p lsr l) land 1
    else Array.unsafe_get sv ((s * lanes) + l)
  in
  let wr l d v =
    let p = Array.unsafe_get p1 d in
    if p >= 0 then begin
      let b = 1 lsl l in
      Array.unsafe_set pv p
        ((Array.unsafe_get pv p land lnot b) lor ((v land 1) lsl l))
    end
    else Array.unsafe_set sv ((d * lanes) + l) v
  in
  (* signed ripple compare at the pre-extended width: both operands are
     exact signed W-bit values, so MSB-first lexicographic order with
     the sign rule at the top plane decides every lane at once *)
  let cmp (a : int array) (b : int array) =
    let wl = Array.length a in
    let xa = Array.unsafe_get pv (Array.unsafe_get a (wl - 1))
    and xb = Array.unsafe_get pv (Array.unsafe_get b (wl - 1)) in
    let lt = ref (xa land lnot xb) in
    let eq = ref (lnot (xa lxor xb) land lm) in
    for j = wl - 2 downto 0 do
      let x = Array.unsafe_get pv (Array.unsafe_get a j)
      and y = Array.unsafe_get pv (Array.unsafe_get b j) in
      lt := !lt lor (!eq land lnot x land y);
      eq := !eq land lnot (x lxor y)
    done;
    (!lt, !eq)
  in
  let sxv v sh = (v lsl sh) asr sh in
  let n = Array.length ins in
  for k = 0 to n - 1 do
    let d = Array.unsafe_get dsts k in
    match Array.unsafe_get ins k with
    | VMux (ss, sa, sb) ->
        let sm = Array.unsafe_get pv ss in
        Array.unsafe_set pv d
          ((sm land Array.unsafe_get pv sa)
          lor (lnot sm land Array.unsafe_get pv sb))
    | VNot s -> Array.unsafe_set pv d (lnot (Array.unsafe_get pv s) land lm)
    | VAnd (a, b) ->
        Array.unsafe_set pv d (Array.unsafe_get pv a land Array.unsafe_get pv b)
    | VOr (a, b) ->
        Array.unsafe_set pv d (Array.unsafe_get pv a lor Array.unsafe_get pv b)
    | VXor (a, b) ->
        Array.unsafe_set pv d (Array.unsafe_get pv a lxor Array.unsafe_get pv b)
    | VNxor (a, b) ->
        Array.unsafe_set pv d
          (lnot (Array.unsafe_get pv a lxor Array.unsafe_get pv b) land lm)
    | VAndn (a, b) ->
        Array.unsafe_set pv d
          (Array.unsafe_get pv a land lnot (Array.unsafe_get pv b))
    | VOrn (a, b) ->
        Array.unsafe_set pv d
          ((Array.unsafe_get pv a lor lnot (Array.unsafe_get pv b)) land lm)
    | LMuxC (ss, a, b, w) ->
        let sm = Array.unsafe_get pv ss in
        let nm = lnot sm in
        for j = 0 to w - 1 do
          Array.unsafe_set pv (d + j)
            ((sm land Array.unsafe_get pv (a + j))
            lor (nm land Array.unsafe_get pv (b + j)))
        done
    | LMux (ss, a, b) ->
        let sm = Array.unsafe_get pv ss in
        let nm = lnot sm in
        for j = 0 to Array.length a - 1 do
          Array.unsafe_set pv (d + j)
            ((sm land Array.unsafe_get pv (Array.unsafe_get a j))
            lor (nm land Array.unsafe_get pv (Array.unsafe_get b j)))
        done
    | LNot a ->
        for j = 0 to Array.length a - 1 do
          Array.unsafe_set pv (d + j)
            (lnot (Array.unsafe_get pv (Array.unsafe_get a j)) land lm)
        done
    | LAnd (a, b) ->
        for j = 0 to Array.length a - 1 do
          Array.unsafe_set pv (d + j)
            (Array.unsafe_get pv (Array.unsafe_get a j)
            land Array.unsafe_get pv (Array.unsafe_get b j))
        done
    | LOr (a, b) ->
        for j = 0 to Array.length a - 1 do
          Array.unsafe_set pv (d + j)
            (Array.unsafe_get pv (Array.unsafe_get a j)
            lor Array.unsafe_get pv (Array.unsafe_get b j))
        done
    | LXor (a, b) ->
        for j = 0 to Array.length a - 1 do
          Array.unsafe_set pv (d + j)
            (Array.unsafe_get pv (Array.unsafe_get a j)
            lxor Array.unsafe_get pv (Array.unsafe_get b j))
        done
    | LAdd (a, b) ->
        let c = ref 0 in
        for j = 0 to Array.length a - 1 do
          let x = Array.unsafe_get pv (Array.unsafe_get a j)
          and y = Array.unsafe_get pv (Array.unsafe_get b j) in
          let u = x lxor y in
          Array.unsafe_set pv (d + j) (u lxor !c);
          c := (x land y) lor (!c land u)
        done
    | LSub (a, b) ->
        (* a - b = a + ~b + 1: borrow-free ripple with carry-in 1 *)
        let c = ref lm in
        for j = 0 to Array.length a - 1 do
          let x = Array.unsafe_get pv (Array.unsafe_get a j)
          and yb = lnot (Array.unsafe_get pv (Array.unsafe_get b j)) land lm in
          let u = x lxor yb in
          Array.unsafe_set pv (d + j) (u lxor !c);
          c := (x land yb) lor (!c land u)
        done
    | LNeg a ->
        let c = ref lm in
        for j = 0 to Array.length a - 1 do
          let xb = lnot (Array.unsafe_get pv (Array.unsafe_get a j)) land lm in
          Array.unsafe_set pv (d + j) (xb lxor !c);
          c := xb land !c
        done
    | LEq (a, b) ->
        let ne = ref 0 in
        for j = 0 to Array.length a - 1 do
          ne :=
            !ne
            lor (Array.unsafe_get pv (Array.unsafe_get a j)
                lxor Array.unsafe_get pv (Array.unsafe_get b j))
        done;
        Array.unsafe_set pv d (lnot !ne land lm)
    | LNeq (a, b) ->
        let ne = ref 0 in
        for j = 0 to Array.length a - 1 do
          ne :=
            !ne
            lor (Array.unsafe_get pv (Array.unsafe_get a j)
                lxor Array.unsafe_get pv (Array.unsafe_get b j))
        done;
        Array.unsafe_set pv d !ne
    | LLt (a, b) ->
        let lt, _ = cmp a b in
        Array.unsafe_set pv d lt
    | LLeq (a, b) ->
        let lt, eq = cmp a b in
        Array.unsafe_set pv d (lt lor eq)
    | LGt (a, b) ->
        let lt, eq = cmp a b in
        Array.unsafe_set pv d (lnot (lt lor eq) land lm)
    | LGeq (a, b) ->
        let lt, _ = cmp a b in
        Array.unsafe_set pv d (lnot lt land lm)
    | LAndr a ->
        let acc = ref lm in
        Array.iter (fun p -> acc := !acc land Array.unsafe_get pv p) a;
        Array.unsafe_set pv d !acc
    | LOrr a ->
        let acc = ref 0 in
        Array.iter (fun p -> acc := !acc lor Array.unsafe_get pv p) a;
        Array.unsafe_set pv d !acc
    | LXorr a ->
        let acc = ref 0 in
        Array.iter (fun p -> acc := !acc lxor Array.unsafe_get pv p) a;
        Array.unsafe_set pv d !acc
    | SCopy s ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d (rd l s land m)
        done
    | SMux (ss, sa, sb) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d ((if rd l ss <> 0 then rd l sa else rd l sb) land m)
        done
    | SNot s ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d (lnot (rd l s) land m)
        done
    | SAndr (full, s) ->
        for l = 0 to lanes - 1 do
          wr l d (if rd l s = full then 1 else 0)
        done
    | SOrr s ->
        for l = 0 to lanes - 1 do
          wr l d (if rd l s <> 0 then 1 else 0)
        done
    | SXorr s ->
        for l = 0 to lanes - 1 do
          wr l d (Bv.popcount_int (rd l s) land 1)
        done
    | SNeg (sh, s) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d (-sxv (rd l s) sh land m)
        done
    | SSext (sh, s) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d (sxv (rd l s) sh land m)
        done
    | SShrC (sh, s) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d ((rd l s lsr sh) land m)
        done
    | SShlC (sh, s) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d ((rd l s lsl sh) land m)
        done
    | SAdd (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d ((sxv (rd l a) sha + sxv (rd l b) shb) land m)
        done
    | SSub (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d ((sxv (rd l a) sha - sxv (rd l b) shb) land m)
        done
    | SMul (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d (sxv (rd l a) sha * sxv (rd l b) shb land m)
        done
    | SDiv (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          let dv = sxv (rd l b) shb in
          wr l d ((if dv = 0 then 0 else sxv (rd l a) sha / dv) land m)
        done
    | SRem (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          let dv = sxv (rd l b) shb in
          wr l d ((if dv = 0 then rd l a else sxv (rd l a) sha mod dv) land m)
        done
    | SLt (sha, a, shb, b) ->
        for l = 0 to lanes - 1 do
          wr l d (if sxv (rd l a) sha < sxv (rd l b) shb then 1 else 0)
        done
    | SLeq (sha, a, shb, b) ->
        for l = 0 to lanes - 1 do
          wr l d (if sxv (rd l a) sha <= sxv (rd l b) shb then 1 else 0)
        done
    | SGt (sha, a, shb, b) ->
        for l = 0 to lanes - 1 do
          wr l d (if sxv (rd l a) sha > sxv (rd l b) shb then 1 else 0)
        done
    | SGeq (sha, a, shb, b) ->
        for l = 0 to lanes - 1 do
          wr l d (if sxv (rd l a) sha >= sxv (rd l b) shb then 1 else 0)
        done
    | SEq (sha, a, shb, b) ->
        for l = 0 to lanes - 1 do
          wr l d (if sxv (rd l a) sha = sxv (rd l b) shb then 1 else 0)
        done
    | SNeq (sha, a, shb, b) ->
        for l = 0 to lanes - 1 do
          wr l d (if sxv (rd l a) sha <> sxv (rd l b) shb then 1 else 0)
        done
    | SAnd (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d (sxv (rd l a) sha land sxv (rd l b) shb land m)
        done
    | SOr (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d ((sxv (rd l a) sha lor sxv (rd l b) shb) land m)
        done
    | SXor (sha, a, shb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d ((sxv (rd l a) sha lxor sxv (rd l b) shb) land m)
        done
    | SCat (a, wb, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          wr l d (((rd l a lsl wb) lor rd l b) land m)
        done
    | SDshl (sha, a, wrw, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          let sh = rd l b in
          wr l d ((if sh >= wrw then 0 else sxv (rd l a) sha lsl sh) land m)
        done
    | SDshr (sha, a, b) ->
        let m = Array.unsafe_get masks k in
        for l = 0 to lanes - 1 do
          let sh = rd l b in
          wr l d (sxv (rd l a) sha asr (if sh > 62 then 62 else sh) land m)
        done
    | SMemRead (mi, ai) -> (
        let m = Array.unsafe_get masks k in
        match t.mems.(mi).lstore with
        | LM_int data ->
            for l = 0 to lanes - 1 do
              let a = rd l ai in
              let row = Array.unsafe_get data l in
              wr l d ((if a < Array.length row then row.(a) else 0) land m)
            done
        | LM_bv data ->
            let drow = t.wv.(d) and zero = t.mems.(mi).lm_zero in
            for l = 0 to lanes - 1 do
              let a = rd l ai in
              let row = Array.unsafe_get data l in
              drow.(l) <- (if a < Array.length row then row.(a) else zero)
            done)
    | SBox f ->
        if Array.unsafe_get wide d then begin
          let row = t.wv.(d) in
          for l = 0 to lanes - 1 do
            row.(l) <- f l
          done
        end
        else begin
          let m = Array.unsafe_get masks k in
          for l = 0 to lanes - 1 do
            wr l d (Bv.to_int_trunc (f l) land m)
          done
        end
  done;
  t.tape_dirty <- false

let clock_edge (t : t) =
  if t.tape_dirty then run_tape t;
  let lanes = t.lanes in
  (* covers: or-fold the point's planes into one fire mask, then harvest
     with a ctz sweep — one increment per (point, fired lane), nothing
     at all for all-quiet points *)
  for k = 0 to Array.length t.cover_slots - 1 do
    let s = t.cover_slots.(k) in
    let base = k * lanes in
    let ps = t.planes_of.(s) in
    if Array.length ps > 0 then begin
      let fire = ref 0 in
      Array.iter (fun p -> fire := !fire lor t.pv.(p)) ps;
      let m = ref !fire in
      while !m <> 0 do
        let b = !m land - !m in
        let l = Bv.ctz_int b in
        t.counters.(base + l) <- Backend.sat_incr t.counters.(base + l);
        m := !m lxor b
      done
    end
    else
      for l = 0 to lanes - 1 do
        if read_lane_bool t l s then
          t.counters.(base + l) <- Backend.sat_incr t.counters.(base + l)
      done
  done;
  for k = 0 to Array.length t.cv_sig - 1 do
    for l = 0 to lanes - 1 do
      if read_lane_bool t l t.cv_en.(k) then begin
        let v = read_lane_int t l t.cv_sig.(k) in
        let arr = t.cv_arr.(k).(l) in
        if v < Array.length arr then arr.(v) <- Backend.sat_incr arr.(v)
      end
    done
  done;
  for k = 0 to Array.length t.stop_slots - 1 do
    let s = t.stop_slots.(k) in
    let ps = t.planes_of.(s) in
    if Array.length ps > 0 then
      Array.iter (fun p -> t.stopped_mask <- t.stopped_mask lor t.pv.(p)) ps
    else
      for l = 0 to lanes - 1 do
        if read_lane_bool t l s then
          t.stopped_mask <- t.stopped_mask lor (1 lsl l)
      done
  done;
  (* prints observe lane 0 only: a 62-fold repeat of every message under
     lockstep stimulus would be noise, and the counts oracle (the thing
     per-lane exactness is for) never involves prints *)
  for k = 0 to Array.length t.print_conds - 1 do
    if read_lane_bool t 0 t.print_conds.(k) then begin
      let args =
        Array.to_list (Array.map (fun s -> read_lane_bv t 0 s) t.print_args.(k))
      in
      !Backend.print_sink (Prep.format_print t.print_msgs.(k) args)
    end
  done;
  (* capture register next-values before anything commits *)
  for i = 0 to Array.length t.rs_src - 1 do
    t.rs_scratch.(i) <- t.pv.(t.rs_src.(i))
  done;
  for i = 0 to Array.length t.ri_src - 1 do
    let s = t.ri_src.(i) and base = i * lanes in
    for l = 0 to lanes - 1 do
      t.ri_scratch.(base + l) <- read_lane_nat t l s
    done
  done;
  for i = 0 to Array.length t.rb_src - 1 do
    (* rows are rebind-only, so scratch may alias them *)
    let row = t.wv.(t.rb_src.(i)) and base = i * lanes in
    for l = 0 to lanes - 1 do
      t.rb_scratch.(base + l) <- row.(l)
    done
  done;
  (* memories: per lane, writes commit before sync-read data latches
     (write-first read-under-write); later ports win *)
  for mi = 0 to Array.length t.mems - 1 do
    let m = t.mems.(mi) in
    match m.lstore with
    | LM_int data ->
        for j = 0 to Array.length m.lwp_en - 1 do
          let en = m.lwp_en.(j) and ad = m.lwp_addr.(j) and dt = m.lwp_data.(j) in
          for l = 0 to lanes - 1 do
            if read_lane_bool t l en then begin
              let a = read_lane_int t l ad in
              let row = data.(l) in
              if a < Array.length row then row.(a) <- read_lane_int t l dt
            end
          done
        done;
        for j = 0 to Array.length m.lsr_addr - 1 do
          let ad = m.lsr_addr.(j) and ds = m.lsr_data.(j) in
          for l = 0 to lanes - 1 do
            let a = read_lane_int t l ad in
            let row = data.(l) in
            write_lane_nat t l ds (if a < Array.length row then row.(a) else 0)
          done
        done
    | LM_bv data ->
        for j = 0 to Array.length m.lwp_en - 1 do
          let en = m.lwp_en.(j) and ad = m.lwp_addr.(j) and dt = m.lwp_data.(j) in
          for l = 0 to lanes - 1 do
            if read_lane_bool t l en then begin
              let a = read_lane_int t l ad in
              let row = data.(l) in
              if a < Array.length row then row.(a) <- read_lane_bv t l dt
            end
          done
        done;
        for j = 0 to Array.length m.lsr_addr - 1 do
          let ad = m.lsr_addr.(j) and ds = m.lsr_data.(j) in
          let drow = t.wv.(ds) in
          for l = 0 to lanes - 1 do
            let a = read_lane_int t l ad in
            let row = data.(l) in
            drow.(l) <- (if a < Array.length row then row.(a) else m.lm_zero)
          done
        done
  done;
  (* commit registers *)
  for i = 0 to Array.length t.rs_dst - 1 do
    t.pv.(t.rs_dst.(i)) <- t.rs_scratch.(i)
  done;
  for i = 0 to Array.length t.ri_dst - 1 do
    let d = t.ri_dst.(i) and base = i * lanes in
    for l = 0 to lanes - 1 do
      write_lane_nat t l d t.ri_scratch.(base + l)
    done
  done;
  for i = 0 to Array.length t.rb_dst - 1 do
    let row = t.wv.(t.rb_dst.(i)) and base = i * lanes in
    for l = 0 to lanes - 1 do
      row.(l) <- t.rb_scratch.(base + l)
    done
  done;
  t.tape_dirty <- true;
  t.cycle <- t.cycle + 1

let step (t : t) n =
  for _ = 1 to n do
    clock_edge t
  done

let cycles (t : t) = t.cycle

let lane_finished (t : t) l = t.stopped_mask land (1 lsl l) <> 0

(* Pokes: no change detection (the plain schedule re-settles the whole
   tape anyway), so they just store and mark the tape dirty. Plane-
   stored targets scatter bit by bit; only input slots are ever poked,
   and inputs always own fresh (unaliased) plane blocks. *)
let poke_slot_lane (t : t) l s v =
  let w = t.widths.(s) in
  let ps = t.planes_of.(s) in
  if Array.length ps > 0 then begin
    let b = 1 lsl l in
    for j = 0 to w - 1 do
      let p = ps.(j) in
      t.pv.(p) <- (t.pv.(p) land lnot b) lor (if Bv.bit v j then b else 0)
    done
  end
  else if t.wide.(s) then t.wv.(s).(l) <- Bv.extend_u v w
  else t.sv.((s * t.lanes) + l) <- Bv.to_int_trunc v land Eval.Int.mask w;
  t.tape_dirty <- true

let poke_lane (t : t) ~lane pname v =
  match Hashtbl.find_opt t.input_slot pname with
  | None -> Backend.error "poke: %s is not an input" pname
  | Some s -> poke_slot_lane t lane s v

let poke_slot_all (t : t) s v =
  let w = t.widths.(s) in
  let ps = t.planes_of.(s) in
  if Array.length ps > 0 then
    for j = 0 to w - 1 do
      t.pv.(ps.(j)) <- (if Bv.bit v j then t.lane_mask else 0)
    done
  else if t.wide.(s) then begin
    let bv = Bv.extend_u v w in
    let row = t.wv.(s) in
    for l = 0 to t.lanes - 1 do
      row.(l) <- bv
    done
  end
  else begin
    let vi = Bv.to_int_trunc v land Eval.Int.mask w in
    let base = s * t.lanes in
    for l = 0 to t.lanes - 1 do
      t.sv.(base + l) <- vi
    done
  end;
  t.tape_dirty <- true

let lane_counts (t : t) l : Counts.t =
  let out = Counts.create () in
  Array.iteri
    (fun k n -> Counts.set out n t.counters.((k * t.lanes) + l))
    t.cover_names;
  Array.iteri
    (fun k n ->
      Array.iteri
        (fun v c -> Counts.set out (Sic_coverage.Cover_values.value_key n v) c)
        t.cv_arr.(k).(l))
    t.cv_names;
  out

(* In-place 32x32 bit-matrix transpose (LSB-first butterfly): on return,
   bit [l] of [a.(j)] is bit [j] of the old [a.(l)]. Rows hold 31-bit
   stimulus limbs, so every intermediate stays far below OCaml's 63-bit
   native-int ceiling. *)
let transpose32 (a : int array) =
  (* five unrolled stages: constant shifts and masks, and the k-walk
     (skip rows whose j-bit is set) becomes simple nested loops *)
  for k = 0 to 15 do
    let ak = Array.unsafe_get a k and akj = Array.unsafe_get a (k + 16) in
    let x = (akj lxor (ak lsr 16)) land 0xFFFF in
    Array.unsafe_set a (k + 16) (akj lxor x);
    Array.unsafe_set a k (ak lxor (x lsl 16))
  done;
  for b = 0 to 1 do
    let base = b lsl 4 in
    for o = 0 to 7 do
      let k = base lor o in
      let ak = Array.unsafe_get a k and akj = Array.unsafe_get a (k + 8) in
      let x = (akj lxor (ak lsr 8)) land 0xFF00FF in
      Array.unsafe_set a (k + 8) (akj lxor x);
      Array.unsafe_set a k (ak lxor (x lsl 8))
    done
  done;
  for b = 0 to 3 do
    let base = b lsl 3 in
    for o = 0 to 3 do
      let k = base lor o in
      let ak = Array.unsafe_get a k and akj = Array.unsafe_get a (k + 4) in
      let x = (akj lxor (ak lsr 4)) land 0x0F0F0F0F in
      Array.unsafe_set a (k + 4) (akj lxor x);
      Array.unsafe_set a k (ak lxor (x lsl 4))
    done
  done;
  for b = 0 to 7 do
    let base = b lsl 2 in
    for o = 0 to 1 do
      let k = base lor o in
      let ak = Array.unsafe_get a k and akj = Array.unsafe_get a (k + 2) in
      let x = (akj lxor (ak lsr 2)) land 0x33333333 in
      Array.unsafe_set a (k + 2) (akj lxor x);
      Array.unsafe_set a k (ak lxor (x lsl 2))
    done
  done;
  for b = 0 to 15 do
    let k = b lsl 1 in
    let ak = Array.unsafe_get a k and akj = Array.unsafe_get a (k + 1) in
    let x = (akj lxor (ak lsr 1)) land 0x55555555 in
    Array.unsafe_set a (k + 1) (akj lxor x);
    Array.unsafe_set a k (ak lxor (x lsl 1))
  done

let run_random (t : t) ~(streams : (unit -> int) array) ~cycles =
  if Array.length streams < t.lanes then
    Backend.error "lanes: %d stimulus streams for %d lanes"
      (Array.length streams) t.lanes;
  let lanes = t.lanes in
  let pv = t.pv and rowsa = t.rowsa and rowsb = t.rowsb in
  let iplan = t.iplan in
  let nin = Array.length iplan in
  let nb0 = min lanes 32 in
  for _ = 1 to cycles do
    for pi = 0 to nin - 1 do
      (match Array.unsafe_get iplan pi with
      | Pw1 p ->
          (* 1-bit input: fuse draw and deposit, no intermediate at all *)
          let acc = ref 0 in
          for l = 0 to lanes - 1 do
            acc := !acc lor (((Array.unsafe_get streams l) () land 1) lsl l)
          done;
          Array.unsafe_set pv p !acc
      | Pplane (ps, w) ->
          (* sliced input: draw every lane's limbs exactly as the
             per-lane Bv.random would (lane-major, limbs ascending, 31
             bits each) straight into the transpose row blocks — row l
             of block i is lane l's i-th draw — then flip each limb
             column into planes *)
          let nl = (w + 30) / 31 in
          for l = 0 to nb0 - 1 do
            let rng = Array.unsafe_get streams l in
            for i = 0 to nl - 1 do
              Array.unsafe_set (Array.unsafe_get rowsa i) l
                (rng () land 0x7FFFFFFF)
            done
          done;
          for l = nb0 to lanes - 1 do
            let rng = Array.unsafe_get streams l in
            for i = 0 to nl - 1 do
              Array.unsafe_set (Array.unsafe_get rowsb i) (l - 32)
                (rng () land 0x7FFFFFFF)
            done
          done;
          for i = 0 to nl - 1 do
            let lo = 31 * i in
            let wl = min 31 (w - lo) in
            let b0 = Array.unsafe_get rowsa i in
            if wl * lanes <= 192 then begin
              (* narrow column: direct gather beats the butterfly *)
              let b1 = Array.unsafe_get rowsb i in
              for j = 0 to wl - 1 do
                let pl = ref 0 in
                for l = 0 to nb0 - 1 do
                  pl :=
                    !pl lor (((Array.unsafe_get b0 l lsr j) land 1) lsl l)
                done;
                for l = nb0 to lanes - 1 do
                  pl :=
                    !pl
                    lor (((Array.unsafe_get b1 (l - 32) lsr j) land 1) lsl l)
                done;
                pv.(ps.(lo + j)) <- !pl
              done
            end
            else begin
              (* rows past the lane count are zeroed before each flip, so
                 every output plane's bits >= lanes are already clear and
                 the merge needs no masking *)
              for l = nb0 to 31 do
                Array.unsafe_set b0 l 0
              done;
              transpose32 b0;
              if lanes > 32 then begin
                let b1 = Array.unsafe_get rowsb i in
                for l = lanes - 32 to 31 do
                  Array.unsafe_set b1 l 0
                done;
                transpose32 b1;
                for j = 0 to wl - 1 do
                  pv.(ps.(lo + j)) <-
                    Array.unsafe_get b0 j lor (Array.unsafe_get b1 j lsl 32)
                done
              end
              else
                for j = 0 to wl - 1 do
                  pv.(ps.(lo + j)) <- Array.unsafe_get b0 j
                done
            end
          done
      | Pstrided (s, w) ->
          let msk = Eval.Int.mask w in
          let nl = (w + 30) / 31 in
          let base = s * lanes in
          for l = 0 to lanes - 1 do
            let rng = streams.(l) in
            let v = ref 0 in
            for i = 0 to nl - 1 do
              v := !v lor ((rng () land 0x7FFFFFFF) lsl (31 * i))
            done;
            t.sv.(base + l) <- !v land msk
          done
      | Prows (s, w) ->
          for l = 0 to lanes - 1 do
            t.wv.(s).(l) <- Bv.random ~width:w streams.(l)
          done);
      ()
    done;
    t.tape_dirty <- true;
    clock_edge t
  done

(* Every lane back to the state [build] returned: all planes zero but
   the constant-ones plane, strided and wide storage zero but the
   presets. Memory words are never mutated in place, so the images blit
   shallowly; every array keeps its identity because decoded
   instructions captured them. *)
let restore (t : t) =
  Array.fill t.pv 0 (Array.length t.pv) 0;
  t.pv.(1) <- t.lane_mask;
  Array.fill t.sv 0 (Array.length t.sv) 0;
  Array.iteri
    (fun s row -> if t.wide.(s) then Array.fill row 0 t.lanes (Bv.zero t.widths.(s)))
    t.wv;
  apply_presets ~lanes:t.lanes ~widths:t.widths ~wide:t.wide t.sv t.wv t.bad_presets;
  Array.iter
    (fun m ->
      match (m.lstore, m.lm_power_on) with
      | LM_int rows, LM_int [| d0 |] -> Array.iter (Backend.blit_ints d0) rows
      | LM_bv rows, LM_bv [| d0 |] ->
          Array.iter (fun d -> Array.blit d0 0 d 0 (Array.length d)) rows
      | (LM_int _ | LM_bv _), _ -> assert false)
    t.mems;
  Array.fill t.counters 0 (Array.length t.counters) 0;
  Array.iter (Array.iter (fun a -> Array.fill a 0 (Array.length a) 0)) t.cv_arr;
  t.tape_dirty <- true;
  t.cycle <- 0;
  t.stopped_mask <- 0

let to_backend ~name (t : t) : Backend.t =
  Backend.with_telemetry
    {
      Backend.backend_name = name;
      circuit = t.p.Prep.low;
      poke =
        (fun pname v ->
          match Hashtbl.find_opt t.input_slot pname with
          | None -> Backend.error "poke: %s is not an input" pname
          | Some s -> poke_slot_all t s v);
      peek =
        (fun pname ->
          if t.tape_dirty then run_tape t;
          match Hashtbl.find_opt t.slot_of pname with
          | Some s -> read_lane_bv t 0 t.alias.(s)
          | None -> Backend.error "peek: unknown signal %s" pname);
      step = (fun n -> step t n);
      counts = (fun () -> lane_counts t 0);
      cycles = (fun () -> t.cycle);
      finished = (fun () -> t.stopped_mask land t.lane_mask = t.lane_mask);
      restore = (fun () -> restore t);
    }

let create ?lanes (c : Circuit.t) : Backend.t = to_backend ~name:"lanes" (build ?lanes c)
