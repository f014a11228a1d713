(** The benchmark's arithmetic: percentiles under the "ten samples beyond"
    rule, medians, failure ratios and open-loop request timing. Kept apart
    from the workloads so the tests can pin every rule down on small,
    hand-checked inputs. *)

(** A percentile is reported only when at least this many samples lie
    beyond it; otherwise it is an extreme order statistic and does not
    repeat. *)
let min_beyond = 10

let sorted (a : float array) : float array =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(** Nearest-rank position (1-based) of the [p]-th percentile among [n]
    samples: the smallest rank whose share of samples is at least [p]%. *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

(** Samples strictly above the [p]-th percentile's rank. *)
let beyond ~n p = n - rank ~n p

(** The [p]-th percentile of [samples] (any order), or [None] when fewer
    than {!min_beyond} samples lie beyond it. *)
let percentile (samples : float array) p : float option =
  let n = Array.length samples in
  if n = 0 || beyond ~n p < min_beyond then None
  else Some (sorted samples).(rank ~n p - 1)

(** Median of any number of samples (mean of the middle two when even);
    [nan] when empty. Used for per-round aggregates, where the round
    count, not a tail, is what repeats. *)
let median (samples : float array) : float =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let s = sorted samples in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(** The faster half of [xs] by [seconds]. On a shared machine other
    tenants slow rounds down, never speed them up, and they do it in
    stretches of several seconds: on the 2-vCPU VM this benchmark was
    written on, identical rounds ran 40-80% slower for 5-15 s at a time.
    Host-time metrics are therefore taken over the faster half of the
    rounds (or set-ups), which leaves the code's own cost and drops most
    of the contention. With [ops], the next-fastest rounds are added until
    they hold at least [2 * min_beyond] operations, enough for a
    median. *)
let quiet ~seconds ?ops xs =
  let sorted = List.stable_sort (fun a b -> Float.compare (seconds a) (seconds b)) xs in
  let half = (List.length xs + 1) / 2 in
  let ops, min_ops =
    match ops with Some f -> (f, 2 * min_beyond) | None -> ((fun _ -> 0), 0)
  in
  let rec take n count acc = function
    | x :: rest when n < half || count < min_ops -> take (n + 1) (count + ops x) (x :: acc) rest
    | _ -> List.rev acc
  in
  take 0 0 [] sorted

let quiet_median (samples : float array) =
  median (Array.of_list (quiet ~seconds:Fun.id (Array.to_list samples)))

(** Failed, refused or timed-out operations over attempted ones. *)
let fail_ratio ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Stats.fail_ratio: nothing attempted"
  else float_of_int failed /. float_of_int attempted

(** {1 Open-loop requests} *)

type request = {
  due : float;  (** when the schedule said to send it, seconds *)
  sent : float;  (** when the generator actually sent it *)
  finished : float;  (** when the reply (or the error) arrived *)
  ok : bool;  (** the reply was the expected status *)
}

(** Latency as the user sees it: from when the request was due, so a
    stall also charges the requests queued behind it. A failed or refused
    request never meets any limit, so it counts as infinitely late. *)
let latency (r : request) : float = if r.ok then r.finished -. r.due else infinity

(** How late the generator sent the request. *)
let lateness (r : request) : float = r.sent -. r.due

(** A request fails when its reply was wrong or refused, or when its
    latency exceeds [limit] (it timed out from the user's point of
    view). *)
let failed ~limit (r : request) = not (latency r <= limit)

let count_failed ~limit (rs : request array) =
  Array.fold_left (fun acc r -> if failed ~limit r then acc + 1 else acc) 0 rs
