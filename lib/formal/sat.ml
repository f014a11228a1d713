(* A compact CDCL solver in the Minisat lineage. Literals are nonzero ints
   (+v / -v); internally a literal [l] is indexed as [2v] (positive) or
   [2v+1] (negative) for the watch lists.

   Every clause, problem or learnt, lives in one growable int array, the
   arena, and is named by the offset [c] of its header:

     arena.(c)              n, the number of literals
     arena.(c + 1)          next clause in the watch list of literal 0
     arena.(c + 2)          next clause in the watch list of literal 1
     arena.(c + 3 ..)       the n literals; 0 and 1 are the watched ones

   A watch list is a singly-linked list threaded through those link
   words, with one head per literal index; -1 ends a list, and -1 is also
   "no clause" wherever a clause is expected. A clause sits in exactly two
   lists, and its literal 0 and its first link word always move
   together, as do literal 1 and the second. *)

let header = 3

type t = {
  mutable nvars : int;
  mutable assign : int array;  (* var -> 0 unassigned / +1 true / -1 false *)
  mutable level : int array;
  mutable reason : int array;  (* var -> the clause that implied it, or -1 *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable heap : int array;  (* binary max-heap of vars by activity *)
  mutable heap_pos : int array;  (* var -> index in heap, -1 if absent *)
  mutable heap_size : int;
  mutable watches : int array;  (* lit index -> first watching clause, or -1 *)
  mutable arena : int array;  (* every clause, as laid out above *)
  mutable arena_size : int;  (* live length of [arena] *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;  (* level l+1 starts at trail.(trail_lim.(l)) *)
  mutable dlevel : int;  (* current decision level = live length of [trail_lim] *)
  mutable seen : bool array;  (* [analyze] scratch, all false between calls *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;  (* false once the empty clause was derived *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable root_units : int list;  (* unit clauses to (re)apply at level 0 *)
  mutable problem : int array;  (* attached problem clauses, for export *)
  mutable nproblem : int;  (* live length of [problem] *)
}

(* [vars] sizes the per-variable arrays and the arena for that many
   variables, so that an instance of about that size never regrows them.
   A Tseitin encoding has about 3.3 clauses of two or three literals per
   variable, about 19 arena words, rounded up to 24. *)
let create ?(vars = 16) () =
  let n = max 16 (vars + 1) in
  {
    nvars = 0;
    assign = Array.make n 0;
    level = Array.make n 0;
    reason = Array.make n (-1);
    activity = Array.make n 0.0;
    phase = Array.make n false;
    heap = Array.make n 0;
    heap_pos = Array.make n (-1);
    heap_size = 0;
    watches = Array.make (2 * n) (-1);
    arena = Array.make (24 * n) 0;
    arena_size = 0;
    trail = Array.make n 0;
    trail_size = 0;
    trail_lim = Array.make n 0;
    dlevel = 0;
    seen = Array.make n false;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    root_units = [];
    problem = Array.make (4 * n) 0;
    nproblem = 0;
  }

let nb_vars s = s.nvars
let nb_clauses s = s.nproblem
let decisions s = s.decisions
let conflicts s = s.conflicts
let propagations s = s.propagations

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let grow_array a n default =
  let len = Array.length a in
  if n <= len then a
  else begin
    let a' = Array.make (max n (2 * len)) default in
    Array.blit a 0 a' 0 len;
    a'
  end

(* --- activity heap ------------------------------------------------- *)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vj) <- i;
  s.heap_pos.(vi) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(parent)) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best)) then best := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best)) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) = -1 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  s.heap_pos.(v) <- -1;
  v

(* --- variables ----------------------------------------------------- *)

(* Every per-variable array has the same capacity (the watch heads twice
   it), so one check grows them all. The heap, the trail and the level
   boundaries never hold more than one entry per variable. *)
let new_var s =
  s.nvars <- s.nvars + 1;
  let v = s.nvars in
  if v >= Array.length s.assign then begin
    let n = 2 * Array.length s.assign in
    s.assign <- grow_array s.assign n 0;
    s.level <- grow_array s.level n 0;
    s.reason <- grow_array s.reason n (-1);
    s.activity <- grow_array s.activity n 0.0;
    s.phase <- grow_array s.phase n false;
    s.heap <- grow_array s.heap n 0;
    s.heap_pos <- grow_array s.heap_pos n (-1);
    s.trail <- grow_array s.trail n 0;
    s.trail_lim <- grow_array s.trail_lim n 0;
    s.seen <- grow_array s.seen n false;
    s.watches <- grow_array s.watches (2 * n) (-1)
  end;
  heap_insert s v;
  v

let lit_value s l =
  let a = s.assign.(abs l) in
  if l > 0 then a else -a

let new_level s =
  s.trail_lim.(s.dlevel) <- s.trail_size;
  s.dlevel <- s.dlevel + 1

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let prefer s vars =
  List.iter
    (fun v ->
      s.activity.(v) <- Float.max s.activity.(v) 1e50;
      if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v))
    vars

(* --- assignment ---------------------------------------------------- *)

let enqueue s l reason =
  let v = abs l in
  s.assign.(v) <- (if l > 0 then 1 else -1);
  s.level.(v) <- s.dlevel;
  s.reason.(v) <- reason;
  s.phase.(v) <- l > 0;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let backtrack s lvl =
  if lvl < s.dlevel then begin
    let bound = s.trail_lim.(lvl) in
    for i = bound to s.trail_size - 1 do
      let v = abs s.trail.(i) in
      s.assign.(v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- min s.qhead bound;
    s.dlevel <- lvl
  end

(* --- propagation --------------------------------------------------- *)

(* Visit the clauses watching each newly falsified literal, in list
   order, and return the conflicting clause or -1. A clause whose
   literal 0 is the falsified one first swaps literals 0 and 1 and their
   link words, so the falsified literal is literal 1 and its link is
   [c + 2]. A clause that finds a new watch moves to the head of that
   literal's list; every other visited clause is pushed onto a fresh head
   for the falsified literal, so the list comes back reversed, as
   consing each kept clause onto a new list would leave it. On a
   conflict the unvisited rest of the list is pushed the same way,
   unswapped. No clause is allocated here, so [arena] stays put. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = -l in
    let idx = lit_index falsified in
    let a = s.arena in
    let kept = ref (-1) in
    let c = ref s.watches.(idx) in
    while !c >= 0 do
      let cl = !c in
      if a.(cl + header) = falsified then begin
        a.(cl + header) <- a.(cl + header + 1);
        a.(cl + header + 1) <- falsified;
        let link = a.(cl + 1) in
        a.(cl + 1) <- a.(cl + 2);
        a.(cl + 2) <- link
      end;
      let next = a.(cl + 2) in
      let first = a.(cl + header) in
      if lit_value s first = 1 then begin
        (* already satisfied: keep watching *)
        a.(cl + 2) <- !kept;
        kept := cl;
        c := next
      end
      else begin
        (* find a new literal to watch *)
        let stop = cl + header + a.(cl) in
        let i = ref (cl + header + 2) in
        while !i < stop && lit_value s a.(!i) = -1 do
          incr i
        done;
        if !i < stop then begin
          let w = a.(!i) in
          a.(!i) <- falsified;
          a.(cl + header + 1) <- w;
          let wi = lit_index w in
          a.(cl + 2) <- s.watches.(wi);
          s.watches.(wi) <- cl;
          c := next
        end
        else begin
          a.(cl + 2) <- !kept;
          kept := cl;
          if lit_value s first = -1 then begin
            (* conflict: keep the unvisited watchers too *)
            let r = ref next in
            while !r >= 0 do
              let d = !r in
              let link = if a.(d + header) = falsified then d + 1 else d + 2 in
              r := a.(link);
              a.(link) <- !kept;
              kept := d
            done;
            s.qhead <- s.trail_size;
            confl := cl;
            c := -1
          end
          else begin
            enqueue s first cl;
            c := next
          end
        end
      end
    done;
    (* a clause's new watch is never the falsified literal, so nothing
       else touched this head meanwhile *)
    s.watches.(idx) <- !kept
  done;
  !confl

(* --- clauses ------------------------------------------------------- *)

(* append the header of an [n]-literal clause; the caller writes its
   literals at [c + header ..] *)
let alloc s n =
  let c = s.arena_size in
  let size = c + header + n in
  if size > Array.length s.arena then s.arena <- grow_array s.arena size 0;
  s.arena.(c) <- n;
  s.arena.(c + 1) <- -1;
  s.arena.(c + 2) <- -1;
  s.arena_size <- size;
  c

let attach s c =
  let a = s.arena in
  let i0 = lit_index a.(c + header) in
  a.(c + 1) <- s.watches.(i0);
  s.watches.(i0) <- c;
  let i1 = lit_index a.(c + header + 1) in
  a.(c + 2) <- s.watches.(i1);
  s.watches.(i1) <- c

let add_problem s c =
  attach s c;
  if s.nproblem = Array.length s.problem then
    s.problem <- grow_array s.problem (2 * s.nproblem) 0;
  s.problem.(s.nproblem) <- c;
  s.nproblem <- s.nproblem + 1

let root_value s l = if s.level.(abs l) = 0 then lit_value s l else 0

(* [lits] is sorted, duplicate-free and not a tautology *)
let add_normalized s lits =
  if not (Array.exists (fun l -> root_value s l = 1) lits) then begin
    let lits =
      if Array.exists (fun l -> root_value s l = -1) lits then
        Array.of_list (List.filter (fun l -> root_value s l <> -1) (Array.to_list lits))
      else lits
    in
    match lits with
    | [||] -> s.ok <- false
    | [| l |] ->
        s.root_units <- l :: s.root_units;
        if s.dlevel = 0 then begin
          match lit_value s l with
          | 0 ->
              enqueue s l (-1);
              if propagate s >= 0 then s.ok <- false
          | -1 -> s.ok <- false
          | _ -> ()
        end
    | _ ->
        let c = alloc s (Array.length lits) in
        Array.blit lits 0 s.arena (c + header) (Array.length lits);
        add_problem s c
  end

(* Normalize a clause: sort, drop duplicates, and report tautologies as
   [None]. Two- and three-literal clauses (nearly every Tseitin clause)
   take a direct path; the result is the same either way. *)
let normalize = function
  | [ a; b ] ->
      if a = -b then None
      else if a = b then Some [| a |]
      else if a < b then Some [| a; b |]
      else Some [| b; a |]
  | [ a; b; c ] ->
      let a, b = if a <= b then (a, b) else (b, a) in
      let a, b, c = if b <= c then (a, b, c) else if a <= c then (a, c, b) else (c, a, b) in
      if a = -b || a = -c || b = -c then None
      else if a = b then Some (if b = c then [| a |] else [| a; c |])
      else if b = c then Some [| a; b |]
      else Some [| a; b; c |]
  | lits ->
      let lits = List.sort_uniq compare lits in
      if List.exists (fun l -> List.mem (-l) lits) lits then None else Some (Array.of_list lits)

let add_clause s lits =
  if s.ok then match normalize lits with Some lits -> add_normalized s lits | None -> ()

(* The two- and three-literal cases of [add_clause], without allocating:
   sorted operands that no root assignment touches go straight into the
   arena. Duplicates and root-false literals take [add_clause]'s path. *)
let add_clause2 s a b =
  if s.ok && a <> -b then begin
    let a' = Int.min a b and b' = Int.max a b in
    let ra = root_value s a' and rb = root_value s b' in
    if a' = b' || ra = -1 || rb = -1 then add_clause s [ a; b ]
    else if ra = 0 && rb = 0 then begin
      let c = alloc s 2 in
      s.arena.(c + header) <- a';
      s.arena.(c + header + 1) <- b';
      add_problem s c
    end
  end

let add_clause3 s a b c =
  if s.ok then begin
    let lo = Int.min a b and hi = Int.max a b in
    let a' = Int.min lo c and b' = Int.max lo (Int.min hi c) and c' = Int.max hi c in
    if not (a' = -b' || a' = -c' || b' = -c') then begin
      let ra = root_value s a' and rb = root_value s b' and rc = root_value s c' in
      if a' = b' || b' = c' || ra = -1 || rb = -1 || rc = -1 then add_clause s [ a; b; c ]
      else if ra = 0 && rb = 0 && rc = 0 then begin
        let cl = alloc s 3 in
        s.arena.(cl + header) <- a';
        s.arena.(cl + header + 1) <- b';
        s.arena.(cl + header + 2) <- c';
        add_problem s cl
      end
    end
  end

(* --- conflict analysis (first UIP) --------------------------------- *)

let analyze s confl : int list * int =
  let seen = s.seen in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  (* 0 = "take all of confl" *)
  let confl = ref confl in
  let trail_i = ref (s.trail_size - 1) in
  let dl = s.dlevel in
  let continue_ = ref true in
  while !continue_ do
    let c = !confl in
    if c >= 0 then
      for i = c + header to c + header + s.arena.(c) - 1 do
        let q = s.arena.(i) in
        let v = abs q in
        if q <> !p && (not seen.(v)) && s.level.(v) > 0 then begin
          seen.(v) <- true;
          bump s v;
          if s.level.(v) >= dl then incr counter else learnt := q :: !learnt
        end
      done;
    (* pick next literal from the trail *)
    while not seen.(abs s.trail.(!trail_i)) do
      decr trail_i
    done;
    let q = s.trail.(!trail_i) in
    let v = abs q in
    seen.(v) <- false;
    decr trail_i;
    decr counter;
    p := q;
    confl := s.reason.(v);
    if !counter <= 0 then continue_ := false
  done;
  (* every current-level variable was unmarked as it was resolved; the
     lower-level ones are exactly the rest of the learnt clause *)
  List.iter (fun q -> seen.(abs q) <- false) !learnt;
  let learnt = -(!p) :: !learnt in
  (* backjump level = second-highest level in learnt clause *)
  let blevel =
    List.fold_left
      (fun acc l ->
        let v = abs l in
        if l <> List.hd learnt && s.level.(v) > acc then s.level.(v) else acc)
      0 (List.tl learnt)
  in
  (learnt, blevel)

(* --- search -------------------------------------------------------- *)

type result = Sat | Unsat

(* The Luby restart sequence (Minisat's computation, base 2). *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  float_of_int (1 lsl !seq)

let pick_branch s =
  let rec go () =
    if s.heap_size = 0 then None
    else
      let v = heap_pop s in
      if s.assign.(v) = 0 then Some v else go ()
  in
  go ()

(* store a learnt clause of two or more literals, asserting literal
   first, and watch the asserting literal and a highest-level one *)
let add_learnt s learnt =
  let c = alloc s (List.length learnt) in
  let a = s.arena in
  List.iteri (fun i q -> a.(c + header + i) <- q) learnt;
  let best = ref (c + header + 1) in
  for i = c + header + 1 to c + header + a.(c) - 1 do
    if s.level.(abs a.(i)) > s.level.(abs a.(!best)) then best := i
  done;
  let tmp = a.(c + header + 1) in
  a.(c + header + 1) <- a.(!best);
  a.(!best) <- tmp;
  attach s c;
  c

let solve ?(assumptions = []) s =
  if not s.ok then Unsat
  else begin
    backtrack s 0;
    (* re-propagate root units (e.g. added while not at level 0) *)
    let ok =
      List.for_all
        (fun l ->
          match lit_value s l with
          | 1 -> true
          | -1 -> false
          | _ ->
              enqueue s l (-1);
              true)
        s.root_units
    in
    if (not ok) || propagate s >= 0 then begin
      s.ok <- false;
      Unsat
    end
    else begin
      let restart_ceiling = ref (32.0 *. luby 0) in
      let restart_count = ref 0 in
      let conflicts_since_restart = ref 0 in
      let result = ref None in
      (* place assumptions, each at its own decision level *)
      let rec place = function
        | [] -> true
        | a :: rest -> (
            match lit_value s a with
            | 1 -> place rest
            | -1 -> false
            | _ ->
                new_level s;
                enqueue s a (-1);
                if propagate s >= 0 then false else place rest)
      in
      if not (place assumptions) then Unsat
      else begin
        let assumption_levels = s.dlevel in
        while !result = None do
          let confl = propagate s in
          if confl >= 0 then begin
            s.conflicts <- s.conflicts + 1;
            incr conflicts_since_restart;
            if s.dlevel <= assumption_levels then result := Some Unsat
            else begin
              let learnt, blevel = analyze s confl in
              let blevel = max blevel assumption_levels in
              backtrack s blevel;
              (match learnt with
              | [ l ] when assumption_levels = 0 ->
                  s.root_units <- l :: s.root_units;
                  if lit_value s l = 0 then enqueue s l (-1)
                  else if lit_value s l = -1 then result := Some Unsat
              | [ l ] -> enqueue s l (-1)
              | l :: _ -> enqueue s l (add_learnt s learnt)
              | [] -> result := Some Unsat);
              s.var_inc <- s.var_inc /. 0.95
            end
          end
          else if float_of_int !conflicts_since_restart > !restart_ceiling then begin
            conflicts_since_restart := 0;
            incr restart_count;
            restart_ceiling := 32.0 *. luby !restart_count;
            backtrack s assumption_levels
          end
          else begin
            match pick_branch s with
            | None -> result := Some Sat
            | Some v ->
                s.decisions <- s.decisions + 1;
                new_level s;
                enqueue s (if s.phase.(v) then v else -v) (-1)
          end
        done;
        (match !result with
        | Some Sat -> ()
        | _ -> backtrack s 0);
        Option.get !result
      end
    end
  end

let value s v = if s.assign.(v) = 0 then s.phase.(v) else s.assign.(v) > 0

let stats s =
  Printf.sprintf "conflicts=%d decisions=%d propagations=%d vars=%d" s.conflicts
    s.decisions s.propagations s.nvars

(* DIMACS CNF export, so instances can be handed to external SAT
   solvers: the empty clause once the solver is known unsatisfiable, then
   the root units, then the attached problem clauses (learnt ones are
   left out). Problem clauses were simplified against the root assignment
   as they were added, so the export is equisatisfiable with the clauses
   added rather than a copy of them. *)
let to_dimacs s =
  let buf = Buffer.create 4096 in
  let lit l = Buffer.add_string buf (string_of_int l ^ " ") in
  let empty = if s.ok then 0 else 1 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" s.nvars (empty + List.length s.root_units + s.nproblem));
  if not s.ok then Buffer.add_string buf "0\n";
  List.iter
    (fun l ->
      lit l;
      Buffer.add_string buf "0\n")
    (List.rev s.root_units);
  for i = 0 to s.nproblem - 1 do
    let c = s.problem.(i) in
    for j = c + header to c + header + s.arena.(c) - 1 do
      lit s.arena.(j)
    done;
    Buffer.add_string buf "0\n"
  done;
  Buffer.contents buf

exception Dimacs_error of string

(* parse a DIMACS instance into a fresh solver (testing aid / external
   interchange) *)
let of_dimacs text =
  let s = create () in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
        | [ "p"; "cnf"; nv; _nc ] -> (
            match int_of_string_opt nv with
            | Some n ->
                for _ = 1 to n do
                  ignore (new_var s)
                done
            | None -> raise (Dimacs_error line))
        | _ -> raise (Dimacs_error line)
      end
      else begin
        let lits =
          String.split_on_char ' ' line
          |> List.filter (fun w -> w <> "")
          |> List.map (fun w ->
                 match int_of_string_opt w with
                 | Some v -> v
                 | None -> raise (Dimacs_error line))
        in
        match List.rev lits with
        | 0 :: rest -> add_clause s (List.rev rest)
        | _ -> raise (Dimacs_error ("clause not 0-terminated: " ^ line))
      end)
    lines;
  s
