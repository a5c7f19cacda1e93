(* Each domain of a run on a CPU of its own. Left to the OS, the two
   domains of a run sometimes share one CPU for the whole process and
   sometimes not, and on the 2-vCPU host this was tuned on that set
   [serve_open]'s figures for a run: sojourn p50 ~0.20 ms on one CPU,
   ~0.14 ms on two, with the job times moving the other way. Pinning
   makes every run measure the same placement: the calling domain on
   CPU 0 and worker [i] on the [i]-th CPU after it. *)

external pin_self : int -> bool = "perfbench_pin_self"

let cpus = Domain.recommended_domain_count ()

let pin_caller () = pin_self 0

(* Pin every worker of [pool] from inside it. Worker [i] goes to CPU
   [(first + i) mod cpus]: [first] is 0 when the caller is worker 0 (a
   [Wool.run] pool) and 1 when it only submits (a server pool). Each
   try runs one job that pins the worker it lands on and offers a
   spawned task to the others for 0.1 ms. [true] iff every worker was
   reached and pinned. *)
let pin_workers pool ~first =
  let n = Wool.num_workers pool in
  let reached = Array.init n (fun _ -> Atomic.make false) in
  let ok = Atomic.make true in
  let all () = Array.for_all Atomic.get reached in
  let pin_here ctx =
    let id = Wool.self_id ctx in
    if not (Atomic.get reached.(id)) then begin
      if not (pin_self ((first + id) mod cpus)) then Atomic.set ok false;
      Atomic.set reached.(id) true
    end
  in
  let tries = ref 0 in
  while (not (all ())) && !tries < 1000 do
    incr tries;
    Wool.run pool (fun ctx ->
        pin_here ctx;
        let f = Wool.spawn ctx pin_here in
        let t0 = Load.now () in
        while Load.now () - t0 < 100_000 && not (all ()) do
          Domain.cpu_relax ()
        done;
        Wool.join ctx f)
  done;
  all () && Atomic.get ok
