(** Tseitin encoding of word-level operations into CNF, with structural
    hashing.

    A [bits] value is an array of SAT literals, LSB first. The word-level
    operators mirror {!Sic_ir.Eval} exactly (same width rules, same
    signedness handling); the test suite checks the two against each other
    on random expressions and inputs. *)

module Bv = Sic_bv.Bv
open Sic_ir

exception Unsupported of string

(* Structural hashing: each gate is keyed on its canonical operands, so
   building the same function of the same literals again returns the gate
   built before. The keys are (0, a, b) for [and2] with a < b, (a, b, 0)
   for [xor2] with 0 < a < b, and (s, a, b) for [ite] with s > 0; a
   literal is never 0, so the three shapes cannot collide. The table is
   open-addressed over flat int arrays, so it holds no boxed keys: slot
   [i] holds the key [keys.(3i .. 3i+2)] and the gate [outs.(i)], which
   is 0 while the slot is free. *)
type gates = { mutable keys : int array; mutable outs : int array; mutable used : int }

type ctx = { solver : Sat.t; tt : int (* literal that is constant true *); gates : gates }

type bits = int array

let create solver =
  let v = Sat.new_var solver in
  Sat.add_clause solver [ v ];
  { solver; tt = v; gates = { keys = Array.make (3 * 1024) 0; outs = Array.make 1024 0; used = 0 } }

let solver ctx = ctx.solver

let tt ctx = ctx.tt
let ff ctx = -ctx.tt

let fresh ctx = Sat.new_var ctx.solver

let clause ctx lits = Sat.add_clause ctx.solver lits

(* --- single-bit gates ---------------------------------------------- *)

(* the slot holding key (a, b, c), or the free slot where it belongs *)
let slot t a b c =
  let mask = Array.length t.outs - 1 in
  let rec probe i =
    if t.outs.(i) = 0 || (t.keys.(3 * i) = a && t.keys.((3 * i) + 1) = b && t.keys.((3 * i) + 2) = c)
    then i
    else probe ((i + 1) land mask)
  in
  let h = (((a * 0x9E3779B1) + b) * 0x9E3779B1) + c in
  probe ((h lxor (h lsr 29)) land mask)

(* double the table once it is half full *)
let grow t =
  let keys = t.keys and outs = t.outs in
  t.keys <- Array.make (2 * Array.length keys) 0;
  t.outs <- Array.make (2 * Array.length outs) 0;
  Array.iteri
    (fun i g ->
      if g <> 0 then begin
        let a = keys.(3 * i) and b = keys.((3 * i) + 1) and c = keys.((3 * i) + 2) in
        let j = slot t a b c in
        Array.blit keys (3 * i) t.keys (3 * j) 3;
        t.outs.(j) <- g
      end)
    outs

(* the gate keyed (a, b, c), built by [encode] on first use *)
let hashed ctx a b c encode =
  let t = ctx.gates in
  let i = slot t a b c in
  if t.outs.(i) <> 0 then t.outs.(i)
  else begin
    let g = fresh ctx in
    encode g;
    t.keys.(3 * i) <- a;
    t.keys.((3 * i) + 1) <- b;
    t.keys.((3 * i) + 2) <- c;
    t.outs.(i) <- g;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.outs then grow t;
    g
  end

let and2 ctx a b =
  if a = ff ctx || b = ff ctx then ff ctx
  else if a = tt ctx then b
  else if b = tt ctx then a
  else if a = b then a
  else if a = -b then ff ctx
  else
    let a, b = if a < b then (a, b) else (b, a) in
    hashed ctx 0 a b (fun g ->
        Sat.add_clause2 ctx.solver (-g) a;
        Sat.add_clause2 ctx.solver (-g) b;
        Sat.add_clause3 ctx.solver g (-a) (-b))

let or2 ctx a b = -and2 ctx (-a) (-b)

let xor2 ctx a b =
  if a = ff ctx then b
  else if b = ff ctx then a
  else if a = tt ctx then -b
  else if b = tt ctx then -a
  else if a = b then ff ctx
  else if a = -b then tt ctx
  else
    (* xor (-a) b = -(xor a b): hash on magnitudes, sign from the parity *)
    let negated = (a < 0) <> (b < 0) in
    let a, b = if abs a < abs b then (abs a, abs b) else (abs b, abs a) in
    let g =
      hashed ctx a b 0 (fun g ->
          Sat.add_clause3 ctx.solver (-g) a b;
          Sat.add_clause3 ctx.solver (-g) (-a) (-b);
          Sat.add_clause3 ctx.solver g (-a) b;
          Sat.add_clause3 ctx.solver g a (-b))
    in
    if negated then -g else g

let ite ctx s a b =
  if s = tt ctx then a
  else if s = ff ctx then b
  else if a = b then a
  else
    let s, a, b = if s > 0 then (s, a, b) else (-s, b, a) in
    hashed ctx s a b (fun g ->
        Sat.add_clause3 ctx.solver (-g) (-s) a;
        Sat.add_clause3 ctx.solver (-g) s b;
        Sat.add_clause3 ctx.solver g (-s) (-a);
        Sat.add_clause3 ctx.solver g s (-b))

let and_list ctx = List.fold_left (and2 ctx) (tt ctx)
let or_list ctx = List.fold_left (or2 ctx) (ff ctx)

let eq2 ctx a b = -xor2 ctx a b

(* --- vectors ------------------------------------------------------- *)

let const_bits ctx (v : Bv.t) : bits =
  Array.init (Bv.width v) (fun i -> if Bv.bit v i then tt ctx else ff ctx)

let fresh_bits ctx w : bits = Array.init w (fun _ -> fresh ctx)

let zero_bits ctx w : bits = Array.make w (ff ctx)

(* extend a vector to width [w] per the signedness of [ty] *)
let extend ctx (ty : Ty.t) (a : bits) (w : int) : bits =
  let n = Array.length a in
  if w <= n then Array.sub a 0 w
  else
    let fill = if Ty.is_signed ty && n > 0 then a.(n - 1) else ff ctx in
    Array.init w (fun i -> if i < n then a.(i) else fill)

let mux_bits ctx s (a : bits) (b : bits) : bits =
  Array.init (Array.length a) (fun i -> ite ctx s a.(i) b.(i))

let eq_bits ctx (a : bits) (b : bits) =
  let w = max (Array.length a) (Array.length b) in
  let get x i = if i < Array.length x then x.(i) else ff ctx in
  and_list ctx (List.init w (fun i -> eq2 ctx (get a i) (get b i)))

(* ripple-carry adder; returns [w] sum bits (carry-out discarded) *)
let adder ctx ?(carry_in : int option) (a : bits) (b : bits) w : bits =
  let cin = Option.value ~default:(ff ctx) carry_in in
  let sum = Array.make w (ff ctx) in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let ai = if i < Array.length a then a.(i) else ff ctx in
    let bi = if i < Array.length b then b.(i) else ff ctx in
    let axb = xor2 ctx ai bi in
    sum.(i) <- xor2 ctx axb !carry;
    carry := or2 ctx (and2 ctx ai bi) (and2 ctx axb !carry)
  done;
  sum

let negate ctx (a : bits) w : bits =
  let inverted = Array.init w (fun i -> if i < Array.length a then -a.(i) else tt ctx) in
  adder ctx ~carry_in:(tt ctx) inverted (zero_bits ctx w) w

(* unsigned a < b *)
let lt_u ctx (a : bits) (b : bits) =
  let w = max (Array.length a) (Array.length b) in
  let get x i = if i < Array.length x then x.(i) else ff ctx in
  let rec go i acc =
    if i >= w then acc
    else
      let ai = get a i and bi = get b i in
      let here = and2 ctx (-ai) bi in
      let same = eq2 ctx ai bi in
      go (i + 1) (or2 ctx here (and2 ctx same acc))
  in
  go 0 (ff ctx)

(* signed compare: flip the sign bits (both at their own widths after a
   common sign extension) and compare unsigned *)
let lt_s ctx (a : bits) (b : bits) =
  let w = max (Array.length a) (Array.length b) in
  if w = 0 then ff ctx
  else begin
    let ext x =
      (* operands arrive already sign-extended to equal widths by callers *)
      let v = Array.copy (extend ctx (Ty.SInt (Array.length x)) x w) in
      v.(w - 1) <- -v.(w - 1);
      v
    in
    lt_u ctx (ext a) (ext b)
  end

let shift_const (a : bits) n w ~fill : bits =
  (* left shift by n at width w *)
  Array.init w (fun i -> if i - n >= 0 && i - n < Array.length a then a.(i - n) else fill)

let mul ctx (a : bits) (b : bits) w : bits =
  if w > 256 then raise (Unsupported "multiplication wider than 256 bits in formal backend");
  let acc = ref (zero_bits ctx w) in
  for i = 0 to min (Array.length b - 1) (w - 1) do
    let partial = shift_const a i w ~fill:(ff ctx) in
    let gated = Array.map (fun l -> and2 ctx l b.(i)) partial in
    acc := adder ctx !acc gated w
  done;
  !acc

(* --- word-level operator dispatch, mirroring Eval ------------------- *)

let unop ctx (op : Expr.unop) ~(ta : Ty.t) (a : bits) : bits =
  let w = Ty.width ta in
  match op with
  | Expr.Not -> Array.map (fun l -> -l) a
  | Expr.Andr -> [| and_list ctx (Array.to_list a) |]
  | Expr.Orr -> [| or_list ctx (Array.to_list a) |]
  | Expr.Xorr -> [| Array.fold_left (xor2 ctx) (ff ctx) a |]
  | Expr.Neg -> negate ctx (extend ctx ta a (w + 1)) (w + 1)
  | Expr.Cvt -> (
      match ta with
      | Ty.UInt _ -> extend ctx (Ty.UInt w) a (w + 1)
      | Ty.SInt _ | Ty.Clock -> a)
  | Expr.AsUInt | Expr.AsSInt -> a

let binop ctx (op : Expr.binop) ~(ta : Ty.t) ~(tb : Ty.t) (a : bits) (b : bits) : bits =
  let wr = Ty.width (Expr.binop_ty op ta tb) in
  let ea = extend ctx ta a and eb = extend ctx tb b in
  match op with
  | Expr.Add -> adder ctx (ea wr) (eb wr) wr
  | Expr.Sub ->
      let nb = Array.map (fun l -> -l) (eb wr) in
      adder ctx ~carry_in:(tt ctx) (ea wr) nb wr
  | Expr.Mul -> mul ctx (ea wr) (eb wr) wr
  | Expr.Div | Expr.Rem -> raise (Unsupported "div/rem in formal backend")
  | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq ->
      let w = max (Array.length a) (Array.length b) + 1 in
      let xa = ea w and xb = eb w in
      let lt = if Ty.is_signed ta then lt_s ctx xa xb else lt_u ctx xa xb in
      let gt = if Ty.is_signed ta then lt_s ctx xb xa else lt_u ctx xb xa in
      [|
        (match op with
        | Expr.Lt -> lt
        | Expr.Gt -> gt
        | Expr.Leq -> -gt
        | Expr.Geq -> -lt
        | _ -> assert false);
      |]
  | Expr.Eq ->
      let w = max (Array.length a) (Array.length b) + 1 in
      [| eq_bits ctx (ea w) (eb w) |]
  | Expr.Neq ->
      let w = max (Array.length a) (Array.length b) + 1 in
      [| -eq_bits ctx (ea w) (eb w) |]
  | Expr.And ->
      let xa = ea wr and xb = eb wr in
      Array.init wr (fun i -> and2 ctx xa.(i) xb.(i))
  | Expr.Or ->
      let xa = ea wr and xb = eb wr in
      Array.init wr (fun i -> or2 ctx xa.(i) xb.(i))
  | Expr.Xor ->
      let xa = ea wr and xb = eb wr in
      Array.init wr (fun i -> xor2 ctx xa.(i) xb.(i))
  | Expr.Cat -> Array.append b a
  | Expr.Dshl ->
      let base = ea wr in
      let result = ref base in
      Array.iteri
        (fun i bi ->
          let shifted = shift_const !result (1 lsl i) wr ~fill:(ff ctx) in
          result := mux_bits ctx bi shifted !result)
        b;
      !result
  | Expr.Dshr ->
      let w = Array.length a in
      let fill = if Ty.is_signed ta && w > 0 then a.(w - 1) else ff ctx in
      let result = ref a in
      Array.iteri
        (fun i bi ->
          let n = 1 lsl i in
          let shifted =
            Array.init w (fun j -> if j + n < w then !result.(j + n) else fill)
          in
          result := mux_bits ctx bi shifted !result)
        b;
      !result

let intop ctx (op : Expr.intop) (n : int) ~(ta : Ty.t) (a : bits) : bits =
  let w = Ty.width ta in
  match op with
  | Expr.Pad -> extend ctx ta a (max w n)
  | Expr.Shl -> shift_const a n (w + n) ~fill:(ff ctx)
  | Expr.Shr ->
      let n = if Ty.is_signed ta then min n (w - 1) else n in
      let wr = max 1 (w - n) in
      Array.init wr (fun i -> if i + n < Array.length a then a.(i + n) else ff ctx)
  | Expr.Head -> Array.sub a (w - n) n
  | Expr.Tail -> Array.sub a 0 (w - n)

let bits_op (a : bits) ~hi ~lo : bits = Array.sub a lo (hi - lo + 1)

(** Read a model value back as a bitvector. *)
let model_value (ctx : ctx) (a : bits) : Bv.t =
  let s = Bv.zero (Array.length a) in
  Array.to_list a
  |> List.mapi (fun i l ->
         let v = Sat.value ctx.solver (abs l) in
         let v = if l > 0 then v else not v in
         (i, v))
  |> List.fold_left
       (fun acc (i, v) ->
         if v then Bv.logor ~width:(Bv.width s) acc (Bv.shift_left ~width:(Bv.width s) (Bv.one (Bv.width s)) i)
         else acc)
       s
