(* A compact CDCL solver in the Minisat lineage. Literals are nonzero ints
   (+v / -v); internally a literal [l] is indexed as [2v] (positive) or
   [2v+1] (negative) for the watch lists. *)

type clause = { lits : int array }

type t = {
  mutable nvars : int;
  mutable assign : int array;  (* var -> 0 unassigned / +1 true / -1 false *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable phase : bool array;
  mutable heap : int array;  (* binary max-heap of vars by activity *)
  mutable heap_pos : int array;  (* var -> index in heap, -1 if absent *)
  mutable heap_size : int;
  mutable watches : clause list array;  (* lit index -> watching clauses *)
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
  mutable problem : clause array;  (* attached problem clauses, for export *)
  mutable nproblem : int;  (* live length of [problem] *)
}

let no_clause = { lits = [||] }

let create () =
  {
    nvars = 0;
    assign = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 None;
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    heap = Array.make 16 0;
    heap_pos = Array.make 16 (-1);
    heap_size = 0;
    watches = Array.make 32 [];
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 16 0;
    dlevel = 0;
    seen = Array.make 16 false;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    root_units = [];
    problem = Array.make 16 no_clause;
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

(* Every per-variable array has the same capacity (the watch lists twice
   it), so one check grows them all. The heap, the trail and the level
   boundaries never hold more than one entry per variable. *)
let new_var s =
  s.nvars <- s.nvars + 1;
  let v = s.nvars in
  if v >= Array.length s.assign then begin
    let n = 2 * Array.length s.assign in
    s.assign <- grow_array s.assign n 0;
    s.level <- grow_array s.level n 0;
    s.reason <- grow_array s.reason n None;
    s.activity <- grow_array s.activity n 0.0;
    s.phase <- grow_array s.phase n false;
    s.heap <- grow_array s.heap n 0;
    s.heap_pos <- grow_array s.heap_pos n (-1);
    s.trail <- grow_array s.trail n 0;
    s.trail_lim <- grow_array s.trail_lim n 0;
    s.seen <- grow_array s.seen n false;
    s.watches <- grow_array s.watches (2 * n) []
  end;
  heap_insert s v;
  v

let lit_value s l =
  let a = s.assign.(abs l) in
  if a = 0 then 0 else if (l > 0) = (a > 0) then 1 else -1

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
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- min s.qhead bound;
    s.dlevel <- lvl
  end

(* --- propagation --------------------------------------------------- *)

exception Conflict of clause

let propagate s : clause option =
  try
    while s.qhead < s.trail_size do
      let l = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      s.propagations <- s.propagations + 1;
      let falsified = -l in
      let idx = lit_index falsified in
      let watching = s.watches.(idx) in
      s.watches.(idx) <- [];
      let rekeep = ref [] in
      let rec process = function
        | [] -> ()
        | c :: rest -> (
            (* ensure falsified literal is at position 1 *)
            if c.lits.(0) = falsified then begin
              c.lits.(0) <- c.lits.(1);
              c.lits.(1) <- falsified
            end;
            if lit_value s c.lits.(0) = 1 then begin
              (* already satisfied: keep watching *)
              rekeep := c :: !rekeep;
              process rest
            end
            else
              (* find a new literal to watch *)
              let n = Array.length c.lits in
              let rec find i =
                if i >= n then None
                else if lit_value s c.lits.(i) <> -1 then Some i
                else find (i + 1)
              in
              match find 2 with
              | Some i ->
                  let w = c.lits.(i) in
                  c.lits.(i) <- falsified;
                  c.lits.(1) <- w;
                  s.watches.(lit_index w) <- c :: s.watches.(lit_index w);
                  process rest
              | None ->
                  rekeep := c :: !rekeep;
                  if lit_value s c.lits.(0) = -1 then begin
                    (* conflict: restore remaining watchers *)
                    List.iter (fun c' -> rekeep := c' :: !rekeep) rest;
                    s.watches.(idx) <- !rekeep;
                    s.qhead <- s.trail_size;
                    raise (Conflict c)
                  end
                  else begin
                    enqueue s c.lits.(0) (Some c);
                    process rest
                  end)
      in
      process watching;
      (* the slot is still empty: a clause's new watch is never the
         falsified literal, so nothing was pushed onto it meanwhile *)
      s.watches.(idx) <- !rekeep
    done;
    None
  with Conflict c -> Some c

(* --- clauses ------------------------------------------------------- *)

let attach s c =
  s.watches.(lit_index c.lits.(0)) <- c :: s.watches.(lit_index c.lits.(0));
  s.watches.(lit_index c.lits.(1)) <- c :: s.watches.(lit_index c.lits.(1))

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
              enqueue s l None;
              if propagate s <> None then s.ok <- false
          | -1 -> s.ok <- false
          | _ -> ()
        end
    | _ ->
        let c = { lits } in
        attach s c;
        if s.nproblem = Array.length s.problem then
          s.problem <- grow_array s.problem (2 * s.nproblem) no_clause;
        s.problem.(s.nproblem) <- c;
        s.nproblem <- s.nproblem + 1
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

(* --- conflict analysis (first UIP) --------------------------------- *)

let analyze s (confl : clause) : int list * int =
  let seen = s.seen in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  (* 0 = "take all of confl" *)
  let confl = ref (Some confl) in
  let trail_i = ref (s.trail_size - 1) in
  let dl = s.dlevel in
  let continue_ = ref true in
  while !continue_ do
    (match !confl with
    | Some c ->
        Array.iter
          (fun q ->
            let v = abs q in
            if q <> !p && (not seen.(v)) && s.level.(v) > 0 then begin
              seen.(v) <- true;
              bump s v;
              if s.level.(v) >= dl then incr counter
              else learnt := q :: !learnt
            end)
          c.lits
    | None -> ());
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
              enqueue s l None;
              true)
        s.root_units
    in
    if (not ok) || propagate s <> None then begin
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
                enqueue s a None;
                if propagate s <> None then false else place rest)
      in
      if not (place assumptions) then Unsat
      else begin
        let assumption_levels = s.dlevel in
        while !result = None do
          match propagate s with
          | Some confl ->
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
                    if lit_value s l = 0 then enqueue s l None
                    else if lit_value s l = -1 then result := Some Unsat
                | l :: _ ->
                    let c = { lits = Array.of_list learnt } in
                    if Array.length c.lits >= 2 then begin
                      (* watch the asserting literal and a highest-level one *)
                      let best = ref 1 in
                      Array.iteri
                        (fun i q ->
                          if i >= 1 && s.level.(abs q) > s.level.(abs c.lits.(!best)) then
                            best := i)
                        c.lits;
                      let tmp = c.lits.(1) in
                      c.lits.(1) <- c.lits.(!best);
                      c.lits.(!best) <- tmp;
                      attach s c;
                      enqueue s l (Some c)
                    end
                    else enqueue s l None
                | [] -> result := Some Unsat);
                s.var_inc <- s.var_inc /. 0.95
              end
          | None ->
              if float_of_int !conflicts_since_restart > !restart_ceiling then begin
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
                    enqueue s (if s.phase.(v) then v else -v) None
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
  let clause lits =
    Array.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) lits;
    Buffer.add_string buf "0\n"
  in
  let empty = if s.ok then 0 else 1 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" s.nvars (empty + List.length s.root_units + s.nproblem));
  if not s.ok then clause [||];
  List.iter (fun l -> clause [| l |]) (List.rev s.root_units);
  for i = 0 to s.nproblem - 1 do
    clause s.problem.(i).lits
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
