(* Seeded inputs and their serial-oracle digests. Every input the pool
   sees is made here from the run's seed. *)

module Rng = Wool_util.Rng

(* Order-sensitive digest of an int array: equal digests for equal
   arrays, and a sort that misplaces one element changes it. *)
let digest a = Array.fold_left (fun h x -> ((h * 1_000_003) + x) land max_int) 17 a

(* A sub-seed per input stream, so the streams of one seed differ. *)
let sub seed k = (seed * 7919) + (k * 104_729) + 1

let text_len = 200_000
let values_len = 400_000
let keys_len = 20_000

type ropes = { text : string; values : int array; keys : int array }

let ropes seed =
  let rng = Rng.make (sub seed 3) in
  {
    text = Wool_workloads.Wordcount.subject ~seed:(sub seed 1) text_len;
    values = Wool_workloads.Histogram.subject ~seed:(sub seed 2) values_len;
    keys = Array.init keys_len (fun _ -> Rng.int rng 1_000_000);
  }

type ropes_oracle = { words : int; hist : int array; sorted : int }

let ropes_oracle r =
  {
    words = Wool_workloads.Wordcount.serial r.text;
    hist = Wool_workloads.Histogram.serial r.values;
    sorted = digest (Wool_workloads.Sort.serial r.keys);
  }

(* [serve_open] requests: fib n with n uniform in [fib_lo, fib_hi]; the
   mix repeats every [mix_len] requests. *)
let fib_lo = 12
let fib_hi = 18
let mix_len = 4096

let serve_mix seed =
  let rng = Rng.make (sub seed 4) in
  Array.init mix_len (fun _ -> fib_lo + Rng.int rng (fib_hi - fib_lo + 1))

(* Arrival schedules: the fixed-rate phase and each ladder rung draw
   their own stream. *)
let phase_seed seed ~rung = sub seed (10 + rung)
