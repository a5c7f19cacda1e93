(* The benchmark's own statistics: the percentile rule, open-loop timing
   under a stall, the ladder's maximum rate, seed handling, spans and
   the result line. *)

module P = Pstats
module Json = Wool_trace.Json

let floats n = Array.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  Alcotest.(check (option (float 0.))) "p99 of 999 samples" None
    (P.quantile (floats 999) 0.99);
  Alcotest.(check (option (float 0.))) "p99 of 1,000 samples" (Some 990.)
    (P.quantile (floats 1000) 0.99);
  Alcotest.(check (option (float 0.))) "p50 of 19 samples" None
    (P.quantile (floats 19) 0.5);
  Alcotest.(check (option (float 0.))) "p50 of 20 samples" (Some 10.)
    (P.quantile (floats 20) 0.5);
  Alcotest.(check (float 0.)) "median of repeats" 2.5
    (P.median [| 4.; 1.; 3.; 2. |])

(* Requests 1 ms apart; request [stalled] holds the sender for 30 ms.
   Every request queued behind it must carry the wait from its own due
   time, although each goes out at once when the sender frees up. *)
let stall_raises_queued_latency () =
  let n = 20 and stalled = 5 and stall_ns = 30_000_000 in
  let offs = Array.init n (fun i -> i * 1_000_000) in
  let due = Array.make n 0 and done_ = Array.make n 0 in
  let start = Load.now () + 1_000_000 in
  let late =
    Load.drive ~start ~offs ~send:(fun i ~due:d ->
        due.(i) <- d;
        if i = stalled then Unix.sleepf (float_of_int stall_ns /. 1e9);
        done_.(i) <- Load.now ())
  in
  let stall_end = done_.(stalled) in
  Alcotest.(check bool) "stall lasted" true
    (stall_end - due.(stalled) >= stall_ns);
  for i = stalled + 1 to n - 1 do
    let sojourn = done_.(i) - due.(i) in
    if due.(i) < stall_end then
      Alcotest.(check bool)
        (Printf.sprintf "request %d waited out the stall" i)
        true
        (sojourn >= stall_end - due.(i))
  done;
  Alcotest.(check bool) "queued requests are not generator lateness" true
    (late.(stalled + 1) < stall_ns / 2)

(* Three blocks of a run go at speed, one in a slow spell. The median
   over all the samples moves with the spell; the middle half of the
   blocks' medians leaves the slow block out. *)
let blocks () =
  Alcotest.(check (list int)) "remainder joins the last block" [ 3; 3; 4 ]
    (Array.to_list (Array.map Array.length (P.blocks ~block:3 (floats 10))));
  Alcotest.(check (array (float 0.))) "blocks keep sample order" (floats 10)
    (Array.concat (Array.to_list (P.blocks ~block:3 (floats 10))));
  let fast = Array.init 20 (fun j -> 1. +. (float_of_int j /. 20.)) in
  let slow = Array.map (fun x -> x +. 10.) fast in
  let run = Array.concat [ fast; slow; fast; fast ] in
  Alcotest.(check (option (float 1e-12))) "pooled median moves" (Some 1.65)
    (P.quantile run 0.5);
  let medians = P.block_quantiles ~block:20 0.5 run in
  Alcotest.(check (array (float 1e-12))) "one median per block"
    [| 1.45; 11.45; 1.45; 1.45 |] medians;
  Alcotest.(check (float 1e-12)) "middle half holds" 1.45 (P.midmean medians);
  Alcotest.(check (array (float 0.))) "p50 needs 20 samples" [||]
    (P.block_quantiles ~block:5 0.5 (floats 19));
  Alcotest.(check int) "p99 blocks hold 1,000 samples" 2
    (Array.length (P.block_quantiles ~block:20 0.99 (floats 2500)));
  Alcotest.(check (float 1e-12)) "middle half of eight" 4.5
    (P.midmean [| 8.; 1.; 7.; 2.; 6.; 3.; 5.; 4. |]);
  Alcotest.(check (float 1e-12)) "all of three" 2. (P.midmean [| 3.; 1.; 2. |])

let rung rate ~sent ~misses = { P.rate; sent; misses }

let ladder_max_rate () =
  let ok r = rung r ~sent:1000 ~misses:0 in
  Alcotest.(check (float 1e-9)) "every rung passes" 300.
    (P.max_rate [ ok 100.; ok 200.; ok 300. ]);
  (* 200/s misses 3% of its requests: the limit's 1% is crossed a third
     of the way from 100 to 200 *)
  Alcotest.(check (float 1e-9)) "interpolated crossing" (100. +. (100. /. 3.))
    (P.max_rate [ ok 100.; rung 200. ~sent:1000 ~misses:30 ]);
  let r =
    P.rung_of ~rate:50. ~limit_ms:2. ~sojourn_ms:[| 1.; 3.; 1. |] ~failed:1
  in
  Alcotest.(check int) "a failure counts as a miss" 2 r.misses;
  Alcotest.(check int) "and as sent" 4 r.sent;
  let pooled =
    P.pool_rungs
      [ [ ok 100.; rung 200. ~sent:500 ~misses:500 ]; [ ok 100.; ok 200. ] ]
  in
  Alcotest.(check (list (pair (float 0.) int)))
    "ladders pool rate by rate"
    [ (100., 0); (200., 500) ]
    (List.map (fun (r : P.rung) -> (r.rate, r.misses)) pooled);
  Alcotest.(check (float 1e-9)) "pooled crossing" (100. +. (100. *. 0.01 /. (1. /. 3.)))
    (P.max_rate pooled);
  let stalled = [ ok 100.; rung 200. ~sent:1000 ~misses:400 ] in
  Alcotest.(check (float 1e-9)) "the worst of three ladders is left out" 200.
    (P.max_rate (P.pool_rungs [ stalled; [ ok 100.; ok 200. ]; [ ok 100.; ok 200. ] ]))

let seeds () =
  let a = Inputs.ropes 1 and a' = Inputs.ropes 1 and b = Inputs.ropes 2 in
  Alcotest.(check bool) "same seed, same inputs" true (a = a');
  Alcotest.(check bool) "same seed, same digests" true
    (Inputs.ropes_oracle a = Inputs.ropes_oracle a');
  Alcotest.(check bool) "another seed, other text" true (a.text <> b.text);
  Alcotest.(check bool) "another seed, other values" true (a.values <> b.values);
  Alcotest.(check bool) "another seed, other keys" true (a.keys <> b.keys);
  let oa = Inputs.ropes_oracle a and ob = Inputs.ropes_oracle b in
  Alcotest.(check bool) "another seed, other digests" true
    (oa.words <> ob.words && oa.hist <> ob.hist && oa.sorted <> ob.sorted);
  Alcotest.(check bool) "serve mix repeats" true
    (Inputs.serve_mix 3 = Inputs.serve_mix 3);
  Alcotest.(check bool) "serve mix varies" true
    (Inputs.serve_mix 3 <> Inputs.serve_mix 4);
  let arr seed = Load.arrivals ~seed ~rate:1000. ~duration_s:1. in
  Alcotest.(check bool) "schedule repeats" true (arr 5 = arr 5);
  Alcotest.(check bool) "schedule varies" true (arr 5 <> arr 6);
  Alcotest.(check bool) "phase streams differ" true
    (Inputs.phase_seed 1 ~rung:0 <> Inputs.phase_seed 1 ~rung:1)

let self_times () =
  let sp = Spans.create ~names:[| "run"; "kernel" |] ~capacity:4 in
  let run = Spans.open_at sp ~name:0 ~parent:Spans.none ~job:0 ~start:0 in
  let k1 = Spans.open_at sp ~name:1 ~parent:run ~job:0 ~start:10 in
  Spans.close_at sp k1 ~stop:30;
  let k2 = Spans.open_at sp ~name:1 ~parent:run ~job:0 ~start:40 in
  Spans.close_at sp k2 ~stop:50;
  Spans.close_at sp run ~stop:100;
  Alcotest.(check (array int)) "self = duration - children" [| 70; 20; 10 |]
    (Spans.self_ns sp);
  ignore (Spans.open_at sp ~name:1 ~parent:run ~job:0 ~start:60 : int);
  Alcotest.(check int) "over capacity is dropped" Spans.none
    (Spans.open_at sp ~name:1 ~parent:run ~job:0 ~start:70);
  Alcotest.(check int) "and counted" 1 (Spans.dropped sp)

let result_round_trip () =
  let metrics =
    [
      { P.name = "latency_ms"; value = 0.1; unit_ = "ms" };
      { P.name = "rate"; value = 123456.789012345; unit_ = "1/s" };
      { P.name = "tiny"; value = 1.5e-9; unit_ = "s" };
    ]
  in
  let line = P.result_json ~correct:true ~attempted:1000 ~failed:0 metrics in
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj members as doc) ->
      Alcotest.(check (list string)) "exactly the result keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst members);
      Alcotest.(check bool) "correct" true
        (Json.member "correct" doc = Some (Json.Bool true));
      Alcotest.(check (option (float 0.))) "attempted" (Some 1000.)
        (Option.bind (Json.member "attempted" doc) Json.to_float);
      let m = Option.get (Json.member "metrics" doc) in
      List.iter
        (fun { P.name; value; unit_ } ->
          let v = Option.get (Json.member name m) in
          Alcotest.(check (option (float 0.))) (name ^ " value, every digit")
            (Some value)
            (Option.bind (Json.member "value" v) Json.to_float);
          Alcotest.(check (option string)) (name ^ " unit") (Some unit_)
            (Option.bind (Json.member "unit" v) Json.to_string))
        metrics
  | Ok _ -> Alcotest.fail "result is not an object"

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "stall raises queued latency" `Quick
            stall_raises_queued_latency;
          Alcotest.test_case "block medians" `Quick blocks;
          Alcotest.test_case "ladder max rate" `Quick ladder_max_rate;
          Alcotest.test_case "seed handling" `Quick seeds;
          Alcotest.test_case "span self times" `Quick self_times;
          Alcotest.test_case "result round trip" `Quick result_round_trip;
        ] );
    ]
