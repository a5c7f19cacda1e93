(* The repository benchmark: one workload per run, every job checked
   against its serial oracle, end-to-end metrics (or, with --trace 1,
   per-layer metrics) printed as one JSON line last on stdout.

     bench.exe --workload fib_fine|ropes_mix|serve_open --seed N
               --seconds S --trace 0|1 [--out DIR]

   A run is [epochs] epochs, each on a fresh pool: set-up (timed), then
   half the epoch on the measured phase — a closed loop of back-to-back
   jobs, or open-loop requests at a fixed rate — and half on a ladder of
   fixed offered rates. A traced run traces every other epoch, records
   spans, and then times each layer on its own (see [Layers]). *)

module P = Pstats
module W = Wool_workloads

let now = Load.now
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* {1 Tracing} *)

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

let span_names =
  [|
    "runtime.run";
    "bench.request";
    "runtime.submit";
    "workloads.fib";
    "workloads.wordcount";
    "workloads.histogram";
    "workloads.sort";
  |]

let traced sp ~parent ~job =
  {
    span =
      (fun name f ->
        let id =
          Spans.open_at sp ~name:(Spans.name_id sp name) ~parent ~job
            ~start:(now ())
        in
        let r = f () in
        Spans.close_at sp id ~stop:(now ());
        r);
  }

(* {1 Workloads} *)

type env = {
  pool : Wool.pool;
  job : tracer -> int -> Wool.ctx -> bool;
      (** run request [i] inside the pool; [true] iff its digest matches
          the serial oracle *)
  serial : int -> bool;  (** the serial oracle of request [i], checked *)
}

type spec = {
  name : string;
  config : int -> Wool.Config.t;
  open_rate : float option;  (** [None]: closed loop *)
  limit_ms : float;  (** sojourn limit for goodput and the ladder *)
  ladder : float list;  (** offered rates, requests per second *)
  warmup : int;
  block : int;  (** samples per block of the measured phase *)
  make : int -> (tracer -> int -> Wool.ctx -> bool) * (int -> bool);
}

let fib_n = 20

let fib_fine =
  {
    name = "fib_fine";
    config = (fun seed -> Wool.Config.make ~workers:2 ~seed ());
    open_rate = None;
    limit_ms = 10.;
    ladder = [ 800.; 1200.; 1600.; 2000.; 2400. ];
    warmup = 300;
    block = 200;
    make =
      (fun _seed ->
        let oracle = W.Fib.serial fib_n in
        ( (fun tr _ ctx -> tr.span "workloads.fib" (fun () -> W.Fib.wool ctx fib_n) = oracle),
          fun _ -> W.Fib.serial fib_n = oracle ));
  }

let ropes_mix =
  {
    name = "ropes_mix";
    config = (fun seed -> Wool.Config.make ~workers:2 ~seed ());
    open_rate = None;
    limit_ms = 100.;
    ladder = [ 45.; 60.; 75.; 90.; 105. ];
    warmup = 20;
    block = 20;
    make =
      (fun seed ->
        let r = Inputs.ropes seed in
        let o = Inputs.ropes_oracle r in
        ( (fun tr _ ctx ->
            let w =
              tr.span "workloads.wordcount" (fun () ->
                  W.Wordcount.wool ctx r.text)
            in
            let h =
              tr.span "workloads.histogram" (fun () ->
                  W.Histogram.wool ctx r.values)
            in
            let s = tr.span "workloads.sort" (fun () -> W.Sort.wool ctx r.keys) in
            w = o.words && W.Histogram.equal h o.hist
            && Inputs.digest s = o.sorted),
          fun _ -> Inputs.ropes_oracle r = o ));
  }

let serve_open =
  {
    name = "serve_open";
    config = (fun seed -> Wool.Config.make ~workers:1 ~server:true ~seed ());
    open_rate = Some 2000.;
    limit_ms = 5.;
    ladder = [ 2000.; 3000.; 4000.; 5000.; 6000. ];
    warmup = 500;
    block = 200;
    make =
      (fun seed ->
        let mix = Inputs.serve_mix seed in
        let oracle = Array.init (Inputs.fib_hi + 1) W.Fib.serial in
        let n_of i = mix.(i land (Inputs.mix_len - 1)) in
        ( (fun tr i ctx ->
            let n = n_of i in
            tr.span "workloads.fib" (fun () -> W.Fib.wool ctx n) = oracle.(n)),
          fun i ->
            let n = n_of i in
            W.Fib.serial n = oracle.(n) ));
  }

let workloads = [ fib_fine; ropes_mix; serve_open ]

(* {1 Measurement} *)

type samples = {
  sojourn : Buf.t;  (** ms, from due to result *)
  body : Buf.t;  (** ms, job body on its worker *)
  wait : Buf.t;  (** us, from the end of the call/submit to body start *)
  serial : Buf.t;  (** ms, interleaved serial oracle *)
  late : Buf.t;  (** ms, generator lateness *)
  mutable attempted : int;
  mutable failed : int;
  mutable good : int;  (** completed within the limit *)
  mutable serial_words : float;  (** allocated by the serial oracle runs *)
}

let samples () =
  {
    sojourn = Buf.create ();
    body = Buf.create ();
    wait = Buf.create ();
    serial = Buf.create ();
    late = Buf.create ();
    attempted = 0;
    failed = 0;
    good = 0;
    serial_words = 0.;
  }

let record s ~limit_ms ~due ~handed ~b0 ~b1 ~done_ ok =
  s.attempted <- s.attempted + 1;
  if not ok then s.failed <- s.failed + 1
  else begin
    let soj = ms (done_ - due) in
    Buf.add s.sojourn soj;
    Buf.add s.body (ms (b1 - b0));
    Buf.add s.wait (us (b0 - handed));
    if soj <= limit_ms then s.good <- s.good + 1
  end

let fail s =
  s.attempted <- s.attempted + 1;
  s.failed <- s.failed + 1

let timed_serial (env : env) s i =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let ok = env.serial i in
  Buf.add s.serial (ms (now () - t0));
  s.serial_words <- s.serial_words +. (Gc.minor_words () -. w0);
  if not ok then fail s

let body (env : env) tr i ctx =
  let b0 = now () in
  let ok = env.job tr i ctx in
  (ok, b0, now ())

let check_invariants env where =
  match Wool.Invariants.check env.pool with
  | [] -> ()
  | vs ->
      List.iter (fun v -> Printf.eprintf "invariant violated (%s): %s\n" where v) vs;
      exit 3

(* Closed loop: back-to-back [Wool.run] from one caller for [budget_ns],
   extended until [min_samples] (so the pooled p99 is reportable) up to
   3x the budget. Every 8th job is followed by a timed serial oracle
   run. Returns the samples and the phase's wall seconds. *)
let closed_phase spec env ~budget_ns ~min_samples ~spans ~first =
  let s = samples () in
  let t_start = now () in
  let i = ref first in
  let continue () =
    let el = now () - t_start in
    el < 3 * budget_ns && (el < budget_ns || s.sojourn.n < min_samples)
  in
  while continue () do
    let job = !i in
    let tc = now () in
    let tr, run_span =
      match spans with
      | None -> (untraced, Spans.none)
      | Some sp ->
          let id =
            Spans.open_at sp ~name:(Spans.name_id sp "runtime.run")
              ~parent:Spans.none ~job ~start:tc
          in
          (traced sp ~parent:id ~job, id)
    in
    (match Wool.run env.pool (body env tr job) with
    | ok, b0, b1 ->
        let td = now () in
        Option.iter (fun sp -> Spans.close_at sp run_span ~stop:td) spans;
        record s ~limit_ms:spec.limit_ms ~due:tc ~handed:tc ~b0 ~b1 ~done_:td ok
    | exception _ -> fail s);
    if job mod 8 = 7 then timed_serial env s job;
    incr i
  done;
  (s, float_of_int (now () - t_start) /. 1e9)

(* Open loop at a schedule: request [k] is due at [start + offs.(k)].
   On a server pool each request is submitted and the producer moves on
   (its result is stamped by the job itself); on a closed-loop pool the
   caller runs it synchronously, so a late job delays the ones behind
   it, and each is still timed from its own due time. Returns the
   samples and the phase's wall seconds. *)
let paced_phase spec env s ~offs ~spans ~first =
  let n = Array.length offs in
  let server = spec.open_rate <> None in
  let results = Array.make n (fun () -> (false, 0, 0)) in
  let handed = Array.make n 0 and dues = Array.make n 0 in
  let done_ = Array.make n 0 in
  let start = now () + 1_000_000 in
  let send k ~due =
    let job = first + k in
    let tr, top =
      match spans with
      | None -> (untraced, Spans.none)
      | Some sp ->
          let name = if server then "bench.request" else "runtime.run" in
          let id =
            Spans.open_at sp ~name:(Spans.name_id sp name) ~parent:Spans.none
              ~job ~start:due
          in
          (traced sp ~parent:id ~job, id)
    in
    let close_top t = Option.iter (fun sp -> Spans.close_at sp top ~stop:t) spans in
    dues.(k) <- due;
    if server then begin
      let ts = now () in
      let tk =
        Wool.Submit.submit env.pool (fun ctx ->
            let ((_, _, b1) as r) = body env tr job ctx in
            close_top b1;
            r)
      in
      let te = now () in
      (match spans with
      | None -> ()
      | Some sp ->
          let id =
            Spans.open_at sp ~name:(Spans.name_id sp "runtime.submit")
              ~parent:top ~job ~start:ts
          in
          Spans.close_at sp id ~stop:te);
      handed.(k) <- te;
      results.(k) <- (fun () -> Wool.Submit.await tk)
    end
    else begin
      let ts = now () in
      handed.(k) <- ts;
      let r =
        try Ok (Wool.run env.pool (body env tr job)) with e -> Error e
      in
      let td = now () in
      close_top td;
      done_.(k) <- td;
      results.(k) <- (fun () -> match r with Ok v -> v | Error e -> raise e)
    end
  in
  let late = Load.drive ~start ~offs ~send in
  Array.iter (fun l -> Buf.add s.late (ms l)) late;
  let last = ref start in
  for k = 0 to n - 1 do
    match results.(k) () with
    | ok, b0, b1 ->
        let d = if server then b1 else done_.(k) in
        last := Int.max !last d;
        record s ~limit_ms:spec.limit_ms ~due:dues.(k) ~handed:handed.(k) ~b0
          ~b1 ~done_:d ok
    | exception _ -> fail s
  done;
  float_of_int (!last - start) /. 1e9

(* {1 Epochs}

   A run sets up [epochs] fresh pools in turn, so that [setup_s] is a
   median over several set-ups and no figure rests on a single pool: on
   the 2-vCPU host this was tuned on, a two-worker pool runs fib(20)
   either at about 0.3 ms per job or at about 0.6 ms, and usually keeps
   that speed for its whole life, even with its domains pinned. *)

let epochs = 12

let setup spec seed =
  let t0 = now () in
  let pool = Wool.create ~config:(spec.config seed) () in
  let server = spec.open_rate <> None in
  if not (Affinity.pin_workers pool ~first:(if server then 1 else 0)) then
    prerr_endline "perfbench: could not pin the workers; running unpinned";
  let job, serial = spec.make seed in
  let env = { pool; job; serial } in
  for i = 0 to spec.warmup - 1 do
    if not (Wool.run pool (env.job untraced i)) then
      failwith (spec.name ^ ": warm-up digest mismatch")
  done;
  (env, float_of_int (now () - t0) /. 1e9)

type epoch = {
  setup_s : float;
  phase : samples;
  phase_s : float;  (** wall seconds of the measured phase *)
  stats : Wool.Stats.t * Wool.Stats.t;  (** before and after the phase *)
  gc : Gc.stat * Gc.stat;
  ladder : samples;
  rungs : P.rung list;
  heap_top : int;  (** [Gc] top heap words before the pool shuts down *)
}

(* One epoch: set up a fresh pool, spend half of [epoch_ns] on the
   measured phase and half on the ladder's rungs in rising order, then
   shut the pool down. The run pools each rate's requests over its
   epochs before finding the crossing, so a rung is judged on hundreds
   of requests even where one epoch sends only a few dozen. *)
let epoch spec ~seed ~index ~epoch_ns ~min_samples ~spans ~first =
  let env, setup_s = setup spec seed in
  check_invariants env "after set-up";
  let budget_ns = epoch_ns / 2 in
  let st0 = Wool.Stats.aggregate env.pool and gc0 = Gc.quick_stat () in
  let phase, phase_s =
    match spec.open_rate with
    | None -> closed_phase spec env ~budget_ns ~min_samples ~spans ~first
    | Some rate ->
        let s = samples () in
        let offs =
          Load.arrivals
            ~seed:(Inputs.phase_seed seed ~rung:(index * 8))
            ~rate
            ~duration_s:(float_of_int budget_ns /. 1e9)
        in
        let wall = paced_phase spec env s ~offs ~spans ~first in
        for k = 0 to Int.min 1000 (Array.length offs) - 1 do
          timed_serial env s (first + k)
        done;
        (s, wall)
  in
  let st1 = Wool.Stats.aggregate env.pool and gc1 = Gc.quick_stat () in
  check_invariants env "after the measured phase";
  let lad = samples () in
  let rung_ns = budget_ns / List.length spec.ladder in
  let next = ref (first + phase.attempted) in
  let rec climb k acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let s = samples () in
        let offs =
          Load.arrivals
            ~seed:(Inputs.phase_seed seed ~rung:((index * 8) + 1 + k))
            ~rate
            ~duration_s:(float_of_int rung_ns /. 1e9)
        in
        ignore (paced_phase spec env s ~offs ~spans:None ~first:!next : float);
        next := !next + Array.length offs;
        check_invariants env (Printf.sprintf "after ladder rung %.0f/s" rate);
        lad.attempted <- lad.attempted + s.attempted;
        lad.failed <- lad.failed + s.failed;
        Array.iter (Buf.add lad.late) (Buf.to_array s.late);
        let r =
          P.rung_of ~rate ~limit_ms:spec.limit_ms
            ~sojourn_ms:(Buf.to_array s.sojourn) ~failed:s.failed
        in
        climb (k + 1) (r :: acc) rest
  in
  let rungs = climb 0 [] spec.ladder in
  let heap_top = (Gc.quick_stat ()).top_heap_words in
  Wool.shutdown env.pool;
  Gc.full_major ();
  Printf.eprintf "  epoch %d%s: setup %.3f s, %d jobs, job p50 %s ms, rungs %s\n%!"
    index
    (if spans = None then "" else " (traced)")
    setup_s phase.attempted
    (match P.quantile (Buf.to_array phase.body) 0.5 with
    | Some v -> Printf.sprintf "%.4f" v
    | None -> "-")
    (String.concat ", "
       (List.map
          (fun (r : P.rung) ->
            Printf.sprintf "%.0f/s %d/%d missed" r.rate r.misses r.sent)
          rungs));
  {
    setup_s;
    phase;
    phase_s;
    stats = (st0, st1);
    gc = (gc0, gc1);
    ladder = lad;
    rungs;
    heap_top;
  }

(* {1 Noise record} *)

(* A fixed serial loop timed at the start and end of every run: when a
   later run's figures move together with this one, the machine moved,
   not the code. *)
let calib_ms () =
  let t =
    Array.init 7 (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (W.Fib.serial 25));
        ms (now () - t0))
  in
  P.median t

(* {1 Main} *)

type args = {
  workload : spec;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
}

let usage =
  "bench.exe --workload fib_fine|ropes_mix|serve_open --seed N --seconds S \
   --trace 0|1 [--out DIR]"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref 30. in
  let trace = ref false and out = ref "_build/perfbench" in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.find_opt (fun s -> s.name = w) workloads with
        | Some s -> workload := Some s
        | None -> die ("unknown workload " ^ w));
        go rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n -> seed := Some n
        | None -> die ("bad seed " ^ n));
        go rest
    | "--seconds" :: x :: rest ->
        (match float_of_string_opt x with
        | Some x when x > 0. -> seconds := x
        | _ -> die ("bad seconds " ^ x));
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        go rest
    | "--out" :: d :: rest ->
        out := d;
        go rest
    | a :: _ -> die ("bad argument " ^ a)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed) with
  | Some workload, Some seed ->
      { workload; seed; seconds = !seconds; trace = !trace; out = !out }
  | _ -> die "--workload and --seed are required"

(* Measured and printed on stderr, but left out of the result line: over
   seeds their spread was the widest of all, beyond the largest
   regression bound a result-line metric may carry (0.25) — a host stall
   of a few milliseconds moves p99 sojourn, and the ladder's crossing
   moves with the mix of fast and slow pools. *)
let unsteady = [ "sojourn_ms_p99"; "max_rate_per_s" ]

let q xs p what =
  match P.quantile xs p with
  | Some v -> v
  | None ->
      Printf.eprintf "perfbench: too few samples (%d) for %s\n"
        (Array.length xs) what;
      exit 4

(* The samples of [f] over the epochs [eps], in the order taken. *)
let pooled f eps = Array.concat (List.map (fun e -> Buf.to_array (f e)) eps)

(* Sum of a counter's deltas over the epochs' measured phases. *)
let stats_delta eps f =
  List.fold_left
    (fun acc e ->
      let a, b = e.stats in
      acc +. float_of_int (f b - f a))
    0. eps

let gc_delta eps f =
  List.fold_left
    (fun acc e ->
      let a, b = e.gc in
      acc +. (f b -. f a))
    0. eps

let () =
  let a = parse_args Sys.argv in
  let spec = a.workload in
  if not (Affinity.pin_caller ()) then
    prerr_endline "perfbench: could not pin the caller; running unpinned";
  let calib0 = calib_ms () in
  let spans =
    if a.trace then Some (Spans.create ~names:span_names ~capacity:(1 lsl 18))
    else None
  in
  (* a traced run alternates untraced and traced epochs; the end-to-end
     figures and the counters come from the untraced ones *)
  let traced_epoch i = a.trace && i mod 2 = 1 in
  let untraced_epochs = if a.trace then epochs / 2 else epochs in
  let epoch_ns = int_of_float (a.seconds *. 1e9 /. float_of_int epochs) in
  let min_samples = (1000 + untraced_epochs - 1) / untraced_epochs in
  let first = ref 0 in
  let all =
    List.init epochs (fun index ->
        let e =
          epoch spec ~seed:a.seed ~index ~epoch_ns ~min_samples
            ~spans:(if traced_epoch index then spans else None)
            ~first:!first
        in
        first := !first + e.phase.attempted + e.ladder.attempted;
        (index, e))
  in
  let plain = List.filter_map (fun (i, e) -> if traced_epoch i then None else Some e) all in
  let traced = List.filter_map (fun (i, e) -> if traced_epoch i then Some e else None) all in
  (* The top heap of a process that has made one pool and run it for an
     epoch. OCaml 5.1 neither returns a shut-down pool's heap nor always
     reuses it, so the top heap at the end of a run ratchets up by a
     pool's worth in a pattern that differs from run to run. *)
  let heap_peak_mb =
    float_of_int ((snd (List.hd all)).heap_top * (Sys.word_size / 8))
    /. 1048576.
  in
  let calib1 = calib_ms () in
  (* Every figure is taken over blocks of the untraced epochs' samples,
     in the order they were taken (see [Pstats]): quantile [p] per
     block, then the mean of the middle half of the blocks. *)
  let over_blocks ?(eps = plain) ?(block = spec.block) p f =
    match P.block_quantiles ~block p (pooled f eps) with
    | [||] ->
        Printf.eprintf "perfbench: too few samples (%d) for a p%g block\n"
          (Array.length (pooled f eps)) (100. *. p);
        exit 4
    | v -> P.midmean v
  in
  let job_p50 = over_blocks 0.5 (fun e -> e.phase.body) in
  let serial_p50 = over_blocks ~block:(spec.block / 8) 0.5 (fun e -> e.phase.serial) in
  let sojourn_p50 = over_blocks 0.5 (fun e -> e.phase.sojourn) in
  (* Closed loops: completions per busy second (the caller's sojourns
     are its busy time), per block of jobs. Open loop: over the phases'
     wall time, which the offered rate sets. *)
  let rate ~within =
    let count b =
      if within then Array.fold_left (fun n x -> if x <= spec.limit_ms then n + 1 else n) 0 b
      else Array.length b
    in
    match spec.open_rate with
    | Some _ ->
        let n = List.fold_left (fun n e -> n + if within then e.phase.good else e.phase.attempted - e.phase.failed) 0 plain in
        float_of_int n /. List.fold_left (fun t e -> t +. e.phase_s) 0. plain
    | None ->
        let per_block =
          Array.map
            (fun b -> float_of_int (count b) *. 1e3 /. Array.fold_left ( +. ) 0. b)
            (P.blocks ~block:spec.block (pooled (fun e -> e.phase.sojourn) plain))
        in
        P.midmean per_block
  in
  let m name value unit_ = { P.name; value; unit_ } in
  let e2e =
    [
      m "setup_s" (P.median (Array.of_list (List.map (fun (_, e) -> e.setup_s) all))) "s";
      m "jobs_per_s" (rate ~within:false) "1/s";
      m "job_ms_p50" job_p50 "ms";
      m "job_ms_p99" (over_blocks 0.99 (fun e -> e.phase.body)) "ms";
      m "speedup_x" (serial_p50 /. job_p50) "x";
      m "sojourn_ms_p50" sojourn_p50 "ms";
      m "sojourn_ms_p99" (over_blocks 0.99 (fun e -> e.phase.sojourn)) "ms";
      m "goodput_per_s" (rate ~within:true) "1/s";
      m "max_rate_per_s"
        (P.max_rate (P.pool_rungs (List.map (fun e -> e.rungs) plain)))
        "1/s";
      m "heap_peak_mb" heap_peak_mb "MiB";
    ]
  in
  let sum f = List.fold_left (fun acc (_, e) -> acc + f e) 0 all in
  let attempted = sum (fun e -> e.phase.attempted + e.ladder.attempted) in
  let failed = sum (fun e -> e.phase.failed + e.ladder.failed) in
  let late =
    pooled (fun e -> e.phase.late) plain
    |> Array.append (pooled (fun e -> e.ladder.late) (List.map snd all))
  in
  let gen_late_p99 = Option.value (P.quantile late 0.99) ~default:0. in
  let jobs = float_of_int (List.fold_left (fun acc e -> acc + e.phase.attempted) 0 plain) in
  let gc_words =
    gc_delta plain (fun g -> g.Gc.minor_words)
    -. List.fold_left (fun acc e -> acc +. e.phase.serial_words) 0. plain
  in
  let gc_count f = gc_delta plain (fun g -> float_of_int (f g)) in
  Printf.eprintf
    "perfbench %s seed %d: calib_ms %.4f -> %.4f, gen_late_ms_p99 %.4f, \
     minor_words/job %.0f, minor_gcs/job %.4f, major_gcs/job %.4f, \
     failed_frac %g (%d/%d)\n"
    spec.name a.seed calib0 calib1 gen_late_p99 (gc_words /. jobs)
    (gc_count (fun g -> g.Gc.minor_collections) /. jobs)
    (gc_count (fun g -> g.Gc.major_collections) /. jobs)
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  let metrics =
    if not a.trace then e2e
    else begin
      let sp = Option.get spans in
      let d f = stats_delta plain f /. jobs in
      let steals = stats_delta plain (fun s -> s.steals) in
      let failed_steals = stats_delta plain (fun s -> s.failed_steals) in
      let top = if spec.open_rate = None then "runtime.run" else "bench.request" in
      let traced_p50 = over_blocks ~eps:traced 0.5 (fun e -> e.phase.sojourn) in
      let per_job =
        [
          m "runtime.spawns_per_job" (d (fun s -> s.spawns)) "count";
          m "runtime.inlined_private_per_job" (d (fun s -> s.inlined_private)) "count";
          m "runtime.inlined_public_per_job" (d (fun s -> s.inlined_public)) "count";
          m "runtime.publish_events_per_job" (d (fun s -> s.publish_events)) "count";
          m "runtime.joins_stolen_per_job" (d (fun s -> s.joins_stolen)) "count";
          m "runtime.queue_wait_us_p50"
            (q (pooled (fun e -> e.phase.wait) plain) 0.5 "queue wait p50") "us";
          m "runtime.run_self_us" (P.median (Spans.self_us_of sp top)) "us";
          m "policy.steals_per_job" (steals /. jobs) "count";
          m "policy.failed_steals_per_job" (failed_steals /. jobs) "count";
          m "policy.steal_success_ratio"
            (if steals +. failed_steals = 0. then 0.
             else steals /. (steals +. failed_steals))
            "ratio";
          m "policy.leap_steals_per_job" (d (fun s -> s.leap_steals)) "count";
          m "gc.minor_words_per_job" (gc_words /. jobs) "words";
          m "gc.minor_gcs_per_job" (gc_count (fun g -> g.Gc.minor_collections) /. jobs) "count";
          m "gc.major_gcs_per_job" (gc_count (fun g -> g.Gc.major_collections) /. jobs) "count";
          m "bench.calib_ms" calib0 "ms";
          m "bench.gen_late_ms_p99" gen_late_p99 "ms";
          m "bench.trace_overhead_pct" (100. *. ((traced_p50 /. sojourn_p50) -. 1.)) "%";
        ]
      in
      (try Sys.mkdir a.out 0o755 with Sys_error _ -> ());
      let path =
        Filename.concat a.out (Printf.sprintf "spans-%s-%d.json" spec.name a.seed)
      in
      Spans.write sp path;
      Printf.eprintf "spans: %d recorded, %d dropped, written to %s\n"
        (Spans.count sp) (Spans.dropped sp) path;
      per_job @ Layers.run ~seed:a.seed
    end
  in
  List.iter
    (fun { P.name; value; unit_ } ->
      Printf.eprintf "  %-34s %14.6g %s\n" name value unit_)
    metrics;
  let metrics = List.filter (fun x -> not (List.mem x.P.name unsteady)) metrics in
  let finite = List.for_all (fun x -> Float.is_finite x.P.value) metrics in
  print_endline
    (P.result_json ~correct:(failed = 0 && finite) ~attempted ~failed metrics)
