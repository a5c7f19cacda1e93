(* Load generation: seeded arrival schedules and the paced sender. *)

let now = Wool_util.Clock.now_ns

(* Sleep until ~150us before [t], then spin: a sleeping generator alone
   wakes 0.1-0.3 ms late, which would show up as sojourn time. *)
let spin_ns = 150_000

let wait_until t =
  let rec go () =
    let d = t - now () in
    if d > 2 * spin_ns then begin
      Unix.sleepf (float_of_int (d - spin_ns) /. 1e9);
      go ()
    end
    else if d > 0 then begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

(* Poisson arrival offsets (ns from the phase start) at [rate] per second
   for [duration_s] seconds; the same seed gives the same schedule. *)
let arrivals ~seed ~rate ~duration_s =
  let rng = Wool_util.Rng.make seed in
  let horizon = duration_s *. 1e9 in
  let rec go t acc =
    let u = Wool_util.Rng.float rng 1.0 in
    let t = t +. (-.log (1. -. u) /. rate *. 1e9) in
    if t >= horizon then Array.of_list (List.rev acc)
    else go t (int_of_float t :: acc)
  in
  go 0. []

(* Send request [i] at [start + offs.(i)]; [send i ~due] returns when the
   sender may go on (at once for a submission, after the job for a
   synchronous call). A request is never sent before it is due, and its
   latency is counted from [due] by the caller, so a stall delays — and
   is charged to — every request queued behind it.

   Returns each request's generator lateness: how long after the later
   of its due time and the previous send's return it actually went out,
   which is the generator's own error, not queueing. *)
let drive ~start ~offs ~send =
  let n = Array.length offs in
  let late = Array.make n 0 in
  let free = ref start in
  for i = 0 to n - 1 do
    let due = start + offs.(i) in
    wait_until due;
    late.(i) <- now () - Int.max due !free;
    send i ~due;
    free := now ()
  done;
  late
