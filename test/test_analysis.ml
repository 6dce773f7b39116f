(* Tests for the analysis library: descriptive statistics and the Table I
   complexity model. *)

module Stats = Marlin_analysis.Stats
module Complexity = Marlin_analysis.Complexity
module Cost_model = Marlin_crypto.Cost_model

let feq = Alcotest.check (Alcotest.float 1e-9)

(* ---------- stats ---------- *)

let test_mean_and_stddev () =
  feq "mean" 3.0 (Stats.mean [ 1.; 2.; 3.; 4.; 5. ]);
  feq "mean empty" 0.0 (Stats.mean []);
  feq "stddev of constant" 0.0 (Stats.stddev [ 4.; 4.; 4. ]);
  feq "stddev known" 2.0 (Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] *. sqrt (7. /. 8.));
  feq "stddev singleton" 0.0 (Stats.stddev [ 42. ])

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  feq "p50" 50.0 (Stats.percentile xs ~p:50.);
  feq "p95" 95.0 (Stats.percentile xs ~p:95.);
  feq "p99" 99.0 (Stats.percentile xs ~p:99.);
  feq "p100 = max" 100.0 (Stats.percentile xs ~p:100.);
  feq "unsorted input" 50.0 (Stats.percentile (List.rev xs) ~p:50.);
  feq "empty" 0.0 (Stats.percentile [] ~p:50.);
  feq "median alias" (Stats.percentile xs ~p:50.) (Stats.median xs)

let test_min_max_summary () =
  let xs = [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ] in
  feq "min" 1.0 (Stats.minimum xs);
  feq "max" 9.0 (Stats.maximum xs);
  let s = Stats.summarize xs in
  Alcotest.(check int) "count" 8 s.Stats.count;
  feq "summary mean" (Stats.mean xs) s.Stats.mean;
  feq "summary p95 between p50 and max" s.Stats.p95
    (Stats.percentile xs ~p:95.);
  Alcotest.(check bool) "ordering" true
    (s.Stats.min <= s.Stats.p50 && s.Stats.p50 <= s.Stats.p95
    && s.Stats.p95 <= s.Stats.max)

let test_percentile_edge_cases () =
  feq "singleton p0" 7.0 (Stats.percentile [ 7. ] ~p:0.);
  feq "singleton p50" 7.0 (Stats.percentile [ 7. ] ~p:50.);
  feq "singleton p100" 7.0 (Stats.percentile [ 7. ] ~p:100.);
  feq "p below range clamps to min" 1.0
    (Stats.percentile [ 1.; 2.; 3. ] ~p:(-10.));
  feq "p above range clamps to max" 3.0
    (Stats.percentile [ 1.; 2.; 3. ] ~p:200.);
  let empty = Stats.summarize [] in
  Alcotest.(check int) "empty summary count" 0 empty.Stats.count;
  feq "empty summary mean" 0.0 empty.Stats.mean;
  feq "empty summary p99" 0.0 empty.Stats.p99;
  let one = Stats.summarize [ 4.2 ] in
  Alcotest.(check int) "singleton summary count" 1 one.Stats.count;
  feq "singleton p50 = the sample" 4.2 one.Stats.p50;
  feq "singleton min = max" one.Stats.min one.Stats.max

(* ---------- reservoir ---------- *)

let test_reservoir_small_stream_is_exact () =
  let r = Stats.Reservoir.create ~capacity:8 () in
  Alcotest.(check bool) "fresh is empty" true (Stats.Reservoir.is_empty r);
  List.iter (Stats.Reservoir.add r) [ 3.; 1.; 4.; 1.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.Reservoir.count r);
  Alcotest.(check int) "all kept under capacity" 5 (Stats.Reservoir.kept r);
  feq "mean" 2.8 (Stats.Reservoir.mean r);
  let s = Stats.Reservoir.summarize r in
  feq "exact max" 5.0 s.Stats.max;
  feq "exact min" 1.0 s.Stats.min;
  feq "median matches list stats" (Stats.percentile [ 3.; 1.; 4.; 1.; 5. ] ~p:50.)
    (Stats.Reservoir.percentile r ~p:50.);
  Stats.Reservoir.clear r;
  Alcotest.(check int) "cleared" 0 (Stats.Reservoir.count r);
  feq "cleared summary" 0.0 (Stats.Reservoir.summarize r).Stats.mean

let test_reservoir_bounded_memory_exact_extremes () =
  let capacity = 64 in
  let r = Stats.Reservoir.create ~capacity () in
  let n = 10_000 in
  for i = 1 to n do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check int) "stream length tracked" n (Stats.Reservoir.count r);
  Alcotest.(check int) "kept bounded by capacity" capacity
    (Stats.Reservoir.kept r);
  let s = Stats.Reservoir.summarize r in
  Alcotest.(check int) "summary count is the stream length" n s.Stats.count;
  (* sum/min/max are streamed exactly, not sampled *)
  feq "exact mean" (float_of_int (n + 1) /. 2.) s.Stats.mean;
  feq "exact min" 1.0 s.Stats.min;
  feq "exact max" (float_of_int n) s.Stats.max;
  (* percentiles come from the sample: uniform input must land roughly
     where the true quantile is (the sample is 64 points of 10k) *)
  Alcotest.(check bool) "sampled p50 in the middle half" true
    (s.Stats.p50 > 0.15 *. float_of_int n && s.Stats.p50 < 0.85 *. float_of_int n);
  Alcotest.(check bool) "percentiles ordered" true
    (s.Stats.p50 <= s.Stats.p95 && s.Stats.p95 <= s.Stats.p99)

let test_reservoir_determinism_and_validation () =
  let fill () =
    let r = Stats.Reservoir.create ~capacity:16 () in
    for i = 1 to 1000 do
      Stats.Reservoir.add r (float_of_int (i * i mod 997))
    done;
    Stats.Reservoir.summarize r
  in
  let a = fill () and b = fill () in
  feq "same stream, same sample, same p95" a.Stats.p95 b.Stats.p95;
  feq "and same p50" a.Stats.p50 b.Stats.p50;
  Alcotest.(check bool) "capacity 0 rejected" true
    (match Stats.Reservoir.create ~capacity:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- complexity (Table I) ---------- *)

let eval p n = Complexity.evaluate p ~n ~u:(1 lsl 20) ~c:1024 ~lambda:256

let test_linear_vs_quadratic_communication () =
  let growth p =
    (eval p 100).Complexity.communication_bits
    /. (eval p 10).Complexity.communication_bits
  in
  (* 10x replicas: linear protocols grow ~10x, quadratic ~100x *)
  Alcotest.(check bool) "HotStuff linear" true (growth Complexity.Hotstuff < 15.);
  Alcotest.(check bool) "Marlin linear" true (growth Complexity.Marlin < 15.);
  Alcotest.(check bool) "Jolteon quadratic" true (growth Complexity.Jolteon > 80.);
  Alcotest.(check bool) "Fast-HotStuff quadratic" true
    (growth Complexity.Fast_hotstuff > 80.);
  Alcotest.(check bool) "Wendy in between (n^2 log u term)" true
    (growth Complexity.Wendy > 15. && growth Complexity.Wendy < 110.)

let test_authenticator_complexity () =
  List.iter
    (fun (p, expected) ->
      feq (Complexity.name p ^ " auths at n=10") expected
        (eval p 10).Complexity.authenticators)
    [
      (Complexity.Hotstuff, 10.);
      (Complexity.Marlin, 10.);
      (Complexity.Jolteon, 100.);
      (Complexity.Fast_hotstuff, 100.);
      (Complexity.Wendy, 100.);
    ]

let test_phases () =
  Alcotest.(check string) "HotStuff 3 phases" "3" (Complexity.vc_phases Complexity.Hotstuff);
  Alcotest.(check string) "Jolteon 2" "2" (Complexity.vc_phases Complexity.Jolteon);
  Alcotest.(check string) "Marlin 2 or 3" "2 or 3" (Complexity.vc_phases Complexity.Marlin);
  Alcotest.(check string) "Wendy 2 or 3" "2 or 3" (Complexity.vc_phases Complexity.Wendy)

let test_formulas_nonempty () =
  List.iter
    (fun p ->
      let comm, crypto, auth = Complexity.formulas p in
      Alcotest.(check bool)
        (Complexity.name p ^ " formulas present")
        true
        (String.length comm > 0 && String.length crypto > 0 && String.length auth > 0))
    Complexity.all

let test_wendy_pays_pairings () =
  (* the paper's point: even with conventional signatures elsewhere, Wendy's
     view change pays O(n) pairings, which can make it slower than
     HotStuff's — while Marlin never does. *)
  let cost = Cost_model.ecdsa_group in
  let w = Complexity.crypto_vc_seconds Complexity.Wendy ~n:31 ~cost in
  let h = Complexity.crypto_vc_seconds Complexity.Hotstuff ~n:31 ~cost in
  let m = Complexity.crypto_vc_seconds Complexity.Marlin ~n:31 ~cost in
  Alcotest.(check bool) "Wendy slower than HotStuff" true (w > h);
  Alcotest.(check bool) "Marlin no slower than HotStuff" true (m <= h +. 1e-12)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:200 ~name:"percentile is monotone in p"
      (pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.))
         (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
      (fun (xs, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Stats.percentile xs ~p:lo <= Stats.percentile xs ~p:hi);
    Test.make ~count:200 ~name:"mean within [min, max]"
      (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.))
      (fun xs ->
        let m = Stats.mean xs in
        m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9);
    (* duplicates and infinity are the cases a client's reply row holds:
       replicas that answered at one instant, and those yet to answer *)
    Test.make ~count:300 ~name:"select equals a sort, for every k"
      (pair
         (array_of_size Gen.(1 -- 40)
            (make
               Gen.(
                 frequency
                   [
                     (2, return infinity);
                     (3, map float_of_int (int_range 0 4));
                     (3, float_bound_inclusive 10.);
                   ])))
         small_nat)
      (fun (a, cut) ->
        let len = 1 + (cut mod Array.length a) in
        let sorted = Array.sub a 0 len in
        Array.sort Float.compare sorted;
        List.for_all
          (fun k ->
            let b = Array.copy a in
            Stats.select b ~len ~k;
            let prefix = Array.sub b 0 len in
            Array.sort Float.compare prefix;
            Float.equal b.(k) sorted.(k)
            && prefix = sorted
            && Array.sub b len (Array.length a - len)
               = Array.sub a len (Array.length a - len)
            && Array.for_all (fun x -> x <= b.(k)) (Array.sub b 0 k)
            && Array.for_all (fun x -> x >= b.(k))
                 (Array.sub b (k + 1) (len - k - 1)))
          (List.init len Fun.id));
    (* [summarize] sorts once, stably; every field must equal the list
       helper it replaces, bit for bit. Small integers repeat, and 0. and
       -0. tie under [Float.compare] while their bits differ, so a sort
       that moved ties would show. A singleton is its own summary. *)
    Test.make ~count:300 ~name:"summarize equals the list helpers, bit for bit"
      (list_of_size Gen.(2 -- 60)
         (make
            ~print:(Printf.sprintf "%h")
            Gen.(
              frequency
                [
                  (2, oneofl [ 0.; -0.; infinity; neg_infinity ]);
                  (4, map float_of_int (int_range (-3) 3));
                  (3, float_bound_inclusive 10.);
                ])))
      (fun xs ->
        let s = Stats.summarize xs in
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        s.Stats.count = List.length xs
        && same s.Stats.mean (Stats.mean xs)
        && same s.Stats.min (Stats.minimum xs)
        && same s.Stats.max (Stats.maximum xs)
        && same s.Stats.p50 (Stats.percentile xs ~p:50.)
        && same s.Stats.p95 (Stats.percentile xs ~p:95.)
        && same s.Stats.p99 (Stats.percentile xs ~p:99.)
        && same s.Stats.p999 (Stats.percentile xs ~p:99.9));
    Test.make ~count:100 ~name:"communication monotone in n"
      (pair (oneofl Complexity.all) (int_range 4 200))
      (fun (p, n) ->
        (eval p (n + 1)).Complexity.communication_bits
        >= (eval p n).Complexity.communication_bits);
  ]

let test_select_allocates_nothing () =
  let a = Array.init 256 (fun i -> float_of_int ((i * 7919) mod 256)) in
  let b = Array.make 256 0. in
  let before = Gc.minor_words () in
  for k = 0 to 255 do
    Array.blit a 0 b 0 256;
    Stats.select b ~len:256 ~k
  done;
  let words = Gc.minor_words () -. before in
  (* the one float [Gc.minor_words] itself boxes *)
  Alcotest.(check bool)
    (Printf.sprintf "256 selections allocated %.0f words" words)
    true (words <= 8.);
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Stats.select: need 0 <= k < len <= Array.length a")
    (fun () -> Stats.select b ~len:4 ~k:4)

let suite =
  [
    ("select allocates nothing", `Quick, test_select_allocates_nothing);
    ("mean & stddev", `Quick, test_mean_and_stddev);
    ("percentiles", `Quick, test_percentiles);
    ("min/max/summary", `Quick, test_min_max_summary);
    ("percentile edge cases", `Quick, test_percentile_edge_cases);
    ("reservoir: small stream exact", `Quick, test_reservoir_small_stream_is_exact);
    ( "reservoir: bounded memory, exact extremes",
      `Quick,
      test_reservoir_bounded_memory_exact_extremes );
    ( "reservoir: deterministic, validated",
      `Quick,
      test_reservoir_determinism_and_validation );
    ("linear vs quadratic vc communication", `Quick, test_linear_vs_quadratic_communication);
    ("authenticator complexity", `Quick, test_authenticator_complexity);
    ("phase counts", `Quick, test_phases);
    ("formulas present", `Quick, test_formulas_nonempty);
    ("Wendy pays pairings, Marlin does not", `Quick, test_wendy_pays_pairings);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases

let () = Alcotest.run "analysis" [ ("analysis", suite) ]
