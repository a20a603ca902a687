(* Tests of the benchmark's own analysis: self-time subtraction,
   percentile picks and the result digest. *)

let span ~id ?(parent = -1) ?(words = 0.0) name start stop =
  { Spans.id; name; start; stop; parent; epoch = 0; words }

let self_of name selfs = List.assoc name selfs

let test_self_time () =
  let spans =
    [ span ~id:0 ~words:100.0 "eth.advance_to" 0.0 10.0;
      span ~id:1 ~parent:0 ~words:30.0 "token_bank.deposit" 1.0 4.0;
      span ~id:2 ~parent:0 ~words:10.0 "twin.bank" 5.0 6.0;
      span ~id:3 ~parent:1 ~words:5.0 "twin.bank" 1.5 2.5;
      span ~id:4 ~words:7.0 "eth.advance_to" 20.0 22.0 ]
  in
  let selfs = Spans.self_times spans in
  let eq = Alcotest.(check (float 1e-9)) in
  let eth = self_of "eth.advance_to" selfs in
  eq "parent minus its direct children, summed by name" 8.0 eth.Spans.busy_s;
  eq "words likewise" 67.0 eth.Spans.self_words;
  Alcotest.(check int) "two spans" 2 eth.Spans.count;
  eq "a child minus its own child" 2.0 (self_of "token_bank.deposit" selfs).Spans.busy_s;
  eq "leaves keep their duration" 2.0 (self_of "twin.bank" selfs).Spans.busy_s;
  let total = List.fold_left (fun acc (_, s) -> acc +. s.Spans.busy_s) 0.0 selfs in
  eq "self times add up to the top-level spans" 12.0 total

let test_recorder () =
  let sp = Spans.create ~enabled:true in
  let a = Spans.acc "mempool.push" in
  Spans.set_epoch sp 3;
  Spans.span sp "traffic" (fun () ->
      Spans.span sp "inner" (fun () -> ());
      List.iter (fun x -> ignore (Spans.timed sp a (fun y -> Array.make y 0.0) x)) [ 10; 20 ];
      Spans.flush sp a);
  let spans = Spans.spans sp in
  let find n = List.find (fun s -> s.Spans.name = n) spans in
  let top = find "traffic" in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  Alcotest.(check int) "top level" (-1) top.Spans.parent;
  Alcotest.(check int) "nested" top.Spans.id (find "inner").Spans.parent;
  Alcotest.(check int) "flushed under the open span" top.Spans.id
    (find "mempool.push").Spans.parent;
  Alcotest.(check int) "epoch id" 3 (find "inner").Spans.epoch;
  Alcotest.(check int) "calls counted" 2 (Spans.calls a);
  Alcotest.(check bool) "allocation seen" true ((find "mempool.push").Spans.words >= 30.0);
  let off = Spans.create ~enabled:false in
  Alcotest.(check int) "disabled runs the function" 4 (Spans.span off "x" (fun () -> 4));
  Alcotest.(check int) "and records nothing" 0 (List.length (Spans.spans off))

let test_percentiles () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let eq = Alcotest.(check (float 1e-9)) in
  eq "p50 nearest rank" 50.0 (Spans.percentile (xs 100) 50.0);
  eq "p90" 90.0 (Spans.percentile (xs 100) 90.0);
  eq "p100 is the max" 100.0 (Spans.percentile (xs 100) 100.0);
  eq "unsorted input" 3.0 (Spans.percentile [ 5.0; 1.0; 3.0; 2.0; 4.0 ] 50.0);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Spans.percentile [] 50.0));
  let pick = Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) in
  pick "19 samples: none has 10 beyond it" None (Spans.tail_pick (xs 19));
  pick "20 samples: p50" (Some (50.0, 10.0)) (Spans.tail_pick (xs 20));
  pick "99 samples: still p50" (Some (50.0, 50.0)) (Spans.tail_pick (xs 99));
  pick "100 samples: p90" (Some (90.0, 90.0)) (Spans.tail_pick (xs 100));
  pick "1000 samples: p99" (Some (99.0, 990.0)) (Spans.tail_pick (xs 1000));
  pick "10000 samples: p99.9" (Some (99.9, 9990.0)) (Spans.tail_pick (xs 10_000))

let digest =
  { Result_digest.generated = 62550; processed = 62496; rejected = 55; summary_user_entries = 796;
    mc_gas_total = 115935582; mc_tx_bytes = 765760; sc_cumulative_bytes = 62707260;
    bank_storage_words = 1698 }

let test_digest () =
  Alcotest.(check string) "hot-pool, input 1.0" "66ad017d6565936c" (Result_digest.to_hex digest);
  Alcotest.(check (list string)) "field order"
    [ "generated"; "processed"; "rejected"; "summary_user_entries"; "mc_gas_total"; "mc_tx_bytes";
      "sc_cumulative_bytes"; "bank_storage_words" ]
    (List.map fst (Result_digest.fields digest));
  let bumped =
    [ { digest with generated = digest.generated + 1 }; { digest with processed = 0 };
      { digest with rejected = 56 }; { digest with summary_user_entries = 797 };
      { digest with mc_gas_total = 1 }; { digest with mc_tx_bytes = 1 };
      { digest with sc_cumulative_bytes = 1 }; { digest with bank_storage_words = 1699 } ]
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "every field counts" false
        (Result_digest.to_hex d = Result_digest.to_hex digest))
    bumped

let () =
  Alcotest.run "perfbench"
    [ ("spans",
       [ Alcotest.test_case "self-time subtraction" `Quick test_self_time;
         Alcotest.test_case "recorder" `Quick test_recorder ]);
      ("percentiles", [ Alcotest.test_case "nearest rank and tail pick" `Quick test_percentiles ]);
      ("digest", [ Alcotest.test_case "result digest" `Quick test_digest ]) ]
