(* Statistics the benchmark reports, kept free of clocks and pools so the
   self-test can pin them down exactly. *)

(* A percentile is reported only when at least [min_tail] samples lie
   beyond it: p99 needs 1,000 samples, the median 20. *)
let min_tail = 10

let reportable ~n p = float_of_int n *. (1. -. p) >= float_of_int min_tail

(* Nearest-rank quantile of an already sorted array, [p] in (0, 1]. *)
let rank_sorted sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  sorted.(Int.max 0 (Int.min (n - 1) k))

let quantile xs p =
  let n = Array.length xs in
  if n = 0 || not (reportable ~n p) then None
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    Some (rank_sorted s p)
  end

(* The median of a handful of repeats (set-up runs, seeds): no tail rule,
   middle element or the mean of the middle two. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pstats.median: empty";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* {2 Blocks}

   A run's samples, in the order they were taken, are cut into blocks
   of consecutive samples (the remainder joins the last block), and a
   figure is taken per block. The run reports the mean of the middle
   half of its blocks' figures. On a shared VM a pool can run at one of
   a few speeds for its whole life, and the host slows some blocks down
   in spells: a plain median then jumps between speeds when a run's
   pools split evenly, while the mean over every block follows each
   stall. The middle half moves smoothly with the mix, and a stall
   confined to under a quarter of the blocks cannot move it. A change
   to the program moves every block, and so moves the figure too. *)

let blocks ~block xs =
  let n = Array.length xs in
  let k = Int.max 1 (n / Int.max 1 block) in
  Array.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      Array.sub xs lo (hi - lo))

(* Quantile [p] of each block of at least [block] samples, and at least
   as many as the tail rule needs for [p]; empty when [xs] is too short
   for one block. *)
let block_quantiles ~block p xs =
  let need = Int.max block (int_of_float (Float.ceil (float_of_int min_tail /. (1. -. p)))) in
  if Array.length xs < need then [||]
  else
    Array.map
      (fun b ->
        let s = Array.copy b in
        Array.sort Float.compare s;
        rank_sorted s p)
      (blocks ~block:need xs)

(* Mean of the middle half of [xs]: a quarter, rounded down, is left
   out at each end. *)
let midmean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pstats.midmean: empty";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let k = n / 4 in
  let mid = Array.sub s k (n - (2 * k)) in
  Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

(* {2 Open-loop ladder}

   A rung offers a fixed Poisson rate for a fixed time. A request misses
   when it is over the latency limit or failed; requests are timed from
   their due time, so a growing backlog shows as misses. A rung meets
   the limit when at most 1% of its requests miss. *)

let miss_budget = 0.01

type rung = { rate : float; sent : int; misses : int }

let rung_of ~rate ~limit_ms ~sojourn_ms ~failed =
  let over =
    Array.fold_left (fun a s -> if s > limit_ms then a + 1 else a) 0 sojourn_ms
  in
  { rate; sent = Array.length sojourn_ms + failed; misses = over + failed }

let miss_share r =
  if r.sent = 0 then 1. else float_of_int r.misses /. float_of_int r.sent

(* Rungs of several ladders summed rate by rate, in rising rate order.
   With three ladders or more, each rate leaves out its worst ladder, so
   one ladder hit by a host stall cannot move the crossing. *)
let pool_rungs ladders =
  let all = List.concat ladders in
  let rates = List.sort_uniq Float.compare (List.map (fun r -> r.rate) all) in
  List.map
    (fun rate ->
      let at =
        List.filter (fun r -> r.rate = rate) all
        |> List.stable_sort (fun a b -> Float.compare (miss_share b) (miss_share a))
      in
      let kept = if List.length at >= 3 then List.tl at else at in
      List.fold_left
        (fun acc r -> { acc with sent = acc.sent + r.sent; misses = acc.misses + r.misses })
        { rate; sent = 0; misses = 0 }
        kept)
    rates

(* The highest rate meeting the limit, interpolated linearly in the miss
   share between the last passing rung and the first failing one, so the
   figure moves smoothly instead of jumping a whole rung. A virtual rung
   at rate 0 passes; when every rung passes the top rate is reported. *)
let max_rate rungs =
  let rec go (lo_rate, lo_share) = function
    | [] -> lo_rate
    | r :: rest ->
        let share = miss_share r in
        if share <= miss_budget then go (r.rate, share) rest
        else
          lo_rate
          +. (r.rate -. lo_rate)
             *. (miss_budget -. lo_share)
             /. (share -. lo_share)
  in
  go (0., 0.) rungs

(* {2 Result line} *)

type metric = { name : string; value : float; unit_ : string }

let json_float v = Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float value) unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
