(* Each layer timed on its own, through its public API, after the
   workload's pool is shut down (so at most two domains run). Times are
   medians over repeated batches; word counts are minor-heap words
   allocated on the calling domain. *)

module Ds = Wool_deque.Direct_stack
module Iq = Wool_deque.Inject_queue
module W = Wool_workloads

let now = Load.now
let median = Pstats.median

(* Median ns per op over [reps] batches of [n] ops. *)
let ns_per_op ?(reps = 7) n f =
  f n;
  median
    (Array.init reps (fun _ ->
         let t0 = now () in
         f n;
         float_of_int (now () - t0) /. float_of_int n))

let words_per_op n f =
  let w0 = Gc.minor_words () in
  f n;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Median ms of [reps] calls of [f]. *)
let ms_of ?(reps = 7) f =
  median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         float_of_int (now () - t0) /. 1e6))

let push_pop publicity =
  let s = Ds.create ~capacity:64 ~publicity ~dummy:0 () in
  fun n ->
    for i = 1 to n do
      Ds.push s i;
      match Ds.pop s with
      | Ds.Task (v, _) -> ignore (Sys.opaque_identity v)
      | Ds.Stolen _ -> assert false
    done

let inject_push_pop =
  let q = Iq.create ~capacity:1024 ~dummy:0 () in
  fun n ->
    for i = 1 to n do
      ignore (Iq.try_push q i : bool);
      ignore (Sys.opaque_identity (Iq.try_pop q))
    done

let deque () =
  let n = 1_000_000 in
  let priv = push_pop Ds.All_private and pub = push_pop Ds.All_public in
  [
    ("deque.push_pop_private_ns", ns_per_op n priv, "ns");
    ("deque.push_pop_public_ns", ns_per_op n pub, "ns");
    ("deque.pop_words", words_per_op n priv, "words");
    ("deque.pop_words_public", words_per_op n pub, "words");
    ("deque.inject_push_pop_ns", ns_per_op n inject_push_pop, "ns");
  ]

(* fib(20) on a one-worker pool runs on the calling domain, so its
   spawns and words are all counted here. *)
let runtime_and_ropes ~seed =
  Wool.with_pool ~config:(Wool.Config.make ~workers:1 ~seed ()) (fun pool ->
      let spawns () = (Wool.Stats.aggregate pool).spawns in
      let fib () = Wool.run pool (fun ctx -> W.Fib.wool ctx 20) in
      ignore (fib ());
      let s0 = spawns () in
      ignore (fib ());
      let per_fib = float_of_int (spawns () - s0) in
      let spawn_ns = ms_of ~reps:31 fib *. 1e6 /. per_fib in
      let w0 = Gc.minor_words () in
      ignore (fib ());
      let spawn_words = (Gc.minor_words () -. w0) /. per_fib in
      let run_us =
        ns_per_op ~reps:15 200 (fun n ->
            for _ = 1 to n do
              Wool.run pool ignore
            done)
        /. 1e3
      in
      let len = 200_000 in
      let arr = Array.init len Fun.id in
      let rope = Wool_ropes.of_array arr in
      let of_array_ms = ms_of ~reps:15 (fun () -> Wool_ropes.of_array arr) in
      let reduce_ns =
        ms_of ~reps:15 (fun () ->
            Wool.run pool (fun ctx ->
                Wool_ropes.reduce ctx ~neutral:0 ~combine:( + ) Fun.id rope))
        *. 1e6 /. float_of_int len
      in
      let build_ms =
        ms_of ~reps:15 (fun () ->
            Wool.run pool (fun ctx -> Wool_ropes.build ctx len Fun.id))
      in
      let r = Inputs.ropes seed in
      let mix_job ctx =
        ignore (W.Wordcount.wool ctx r.text);
        ignore (W.Histogram.wool ctx r.values);
        ignore (W.Sort.wool ctx r.keys)
      in
      Wool.run pool mix_job;
      let rope_words =
        median
          (Array.init 3 (fun _ ->
               let w0 = Gc.minor_words () in
               Wool.run pool mix_job;
               Gc.minor_words () -. w0))
      in
      [
        ("runtime.spawn_join_ns", spawn_ns, "ns");
        ("runtime.spawn_words", spawn_words, "words");
        ("runtime.run_us", run_us, "us");
        ("ropes.of_array_ms", of_array_ms, "ms");
        ("ropes.reduce_ns_per_elem", reduce_ns, "ns");
        ("ropes.build_ms", build_ms, "ms");
        ("ropes.words_per_job", rope_words, "words");
        ("workloads.fib_serial_ms", ms_of ~reps:51 (fun () -> W.Fib.serial 20), "ms");
        ( "workloads.wordcount_serial_ms",
          ms_of (fun () -> W.Wordcount.serial r.text),
          "ms" );
        ( "workloads.histogram_serial_ms",
          ms_of (fun () -> W.Histogram.serial r.values),
          "ms" );
        ("workloads.sort_serial_ms", ms_of (fun () -> W.Sort.serial r.keys), "ms");
      ])

(* Submission cost and the wake-up of an idle worker, on a one-worker
   server pool: the worker naps between jobs, the producer is the main
   domain. *)
let ingress ~seed =
  Wool.with_pool
    ~config:(Wool.Config.make ~workers:1 ~server:true ~seed ())
    (fun pool ->
      let submit_ns =
        median
          (Array.init 1000 (fun _ ->
               let t0 = now () in
               let tk = Wool.Submit.submit pool ignore in
               let t1 = now () in
               Wool.Submit.await tk;
               float_of_int (t1 - t0)))
      in
      let wake_ns =
        median
          (Array.init 200 (fun _ ->
               Unix.sleepf 0.002;
               let t0 = now () in
               let tk = Wool.Submit.submit pool (fun _ -> now ()) in
               float_of_int (Wool.Submit.await tk - t0)))
      in
      [
        ("runtime.submit_us", submit_ns /. 1e3, "us");
        ("policy.idle_wake_us", wake_ns /. 1e3, "us");
      ])

let run ~seed =
  List.map
    (fun (name, value, unit_) -> { Pstats.name; value; unit_ })
    (deque () @ runtime_and_ropes ~seed @ ingress ~seed)
