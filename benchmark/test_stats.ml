(* Unit tests for the benchmark's order statistics. Expected quartiles
   were computed with Python's statistics.quantiles(data, n=4). *)

let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))
let close = Alcotest.float 1e-12

let test_nearest_rank () =
  let a = Stats.sorted (List.rev (range 1 100)) in
  Alcotest.check close "p50 of 1..100" 50.0 (Stats.percentile a 50.0);
  Alcotest.check close "p90 of 1..100" 90.0 (Stats.percentile a 90.0);
  Alcotest.check close "p99 of 1..100" 99.0 (Stats.percentile a 99.0);
  Alcotest.check close "p100 of 1..100" 100.0 (Stats.percentile a 100.0);
  let b = Stats.sorted (range 1 10) in
  Alcotest.check close "p1 of 1..10" 1.0 (Stats.percentile b 1.0);
  Alcotest.check close "p50 of 1..10" 5.0 (Stats.percentile b 50.0);
  Alcotest.check close "p55 of 1..10" 6.0 (Stats.percentile b 55.0);
  (* p * n / 100 must not round 90 up to rank 91 or 999 up to 1000 *)
  Alcotest.(check int) "rank p90 n=100" 90 (Stats.rank ~n:100 90.0);
  Alcotest.(check int) "rank p99.9 n=1000" 999 (Stats.rank ~n:1000 99.9);
  Alcotest.(check int) "rank p50 n=1" 1 (Stats.rank ~n:1 50.0)

let test_reportable () =
  let ok n p = Stats.reportable ~n p in
  Alcotest.(check bool) "p95 of 17 samples" false (ok 17 95.0);
  Alcotest.(check bool) "p50 of 17 samples" false (ok 17 50.0);
  Alcotest.(check bool) "p50 of 20 samples" true (ok 20 50.0);
  Alcotest.(check bool) "p90 of 99 samples" false (ok 99 90.0);
  Alcotest.(check bool) "p90 of 100 samples" true (ok 100 90.0);
  Alcotest.(check bool) "p99 of 999 samples" false (ok 999 99.0);
  Alcotest.(check bool) "p99 of 1000 samples" true (ok 1000 99.0);
  Alcotest.(check bool) "no samples" false (ok 0 50.0);
  Alcotest.(check int) "beyond p90 of 136" 13 (Stats.beyond ~n:136 90.0)

let test_tail () =
  let tail n = Option.map fst (Stats.tail (Stats.sorted (range 1 n))) in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "17 samples: nothing" None (tail 17);
  Alcotest.check opt "60 samples: p50" (Some 50.0) (tail 60);
  Alcotest.check opt "136 samples: p90" (Some 90.0) (tail 136);
  Alcotest.check opt "204 samples: p95" (Some 95.0) (tail 204);
  Alcotest.check opt "5000 samples: p99" (Some 99.0) (tail 5000);
  Alcotest.check opt "10000 samples: p99.9" (Some 99.9) (tail 10000);
  match Stats.tail (Stats.sorted (range 1 136)) with
  | Some (_, v) -> Alcotest.check close "p90 value of 1..136" 123.0 v
  | None -> Alcotest.fail "p90 of 136 samples must be reportable"

let test_median_quartiles () =
  Alcotest.check close "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  Alcotest.check q "quartiles of 1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (range 1 10));
  Alcotest.check q "quartiles of two samples" (0.75, 1.5, 2.25)
    (Stats.quartiles [ 2.0; 1.0 ]);
  Alcotest.check q "quartiles of 1..5" (1.5, 3.0, 4.5)
    (Stats.quartiles (range 1 5));
  Alcotest.check q "quartiles of a constant" (7.0, 7.0, 7.0)
    (Stats.quartiles [ 7.0; 7.0; 7.0; 7.0 ]);
  Alcotest.check close "mean" 2.5 (Stats.mean (range 1 4));
  Alcotest.check close "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let test_errors () =
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "rank of no samples" (fun () -> Stats.rank ~n:0 50.0);
  raises "p0" (fun () -> Stats.rank ~n:10 0.0);
  raises "p101" (fun () -> Stats.rank ~n:10 101.0);
  raises "percentile of nothing" (fun () -> Stats.percentile [||] 50.0);
  raises "median of nothing" (fun () -> Stats.median []);
  raises "quartiles of one sample" (fun () -> Stats.quartiles [ 1.0 ])

let () =
  Alcotest.run "bench_stats"
    [ ( "stats",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_reportable;
          Alcotest.test_case "highest reportable tail" `Quick test_tail;
          Alcotest.test_case "median and quartiles" `Quick
            test_median_quartiles;
          Alcotest.test_case "bad input" `Quick test_errors
        ] )
    ]
