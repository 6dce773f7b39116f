(* Determinism oracle: one seed gives one run. Every registry protocol,
   and a lossy/duplicating and a dropped-recipient network, runs twice on
   the same seed, and the two outcomes must be bit-identical: trace JSONL,
   metrics CSV, network totals, per-replica execution and commit state.
   Runs on different seeds must diverge, with the comparer naming the
   first differing trace event. *)

module D = Test_support.Differential

let check_same_seed name proto ~n ~f ~clients ~seed ~until ~faults =
  let run () = D.run proto ~n ~f ~clients ~seed ~until ~faults in
  let a = run () in
  (match D.compare a (run ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s n=%d: %s" name n msg);
  (* The runs must have actually done consensus work, or the comparison
     is vacuous. *)
  Alcotest.(check bool)
    (Printf.sprintf "%s n=%d committed something" name n)
    true
    (List.exists (fun e -> e > 0) a.D.executed);
  Alcotest.(check bool)
    (Printf.sprintf "%s n=%d traced something" name n)
    true (a.D.trace <> [])

let protocol_case (name, proto) =
  let run n f () =
    check_same_seed name proto ~n ~f ~clients:4 ~seed:(1000 + (17 * n))
      ~until:4.0 ~faults:D.no_faults
  in
  [
    Alcotest.test_case (name ^ " n=4 identical across paired runs") `Quick
      (run 4 1);
    Alcotest.test_case (name ^ " n=10 identical across paired runs") `Slow
      (run 10 3);
  ]

(* Fault interactions: drops and duplicates draw from the simulation RNG
   inside the network's admission path. *)
let test_faulty_network () =
  let proto = Marlin_runtime.Registry.find_exn "marlin" in
  check_same_seed "marlin+faults" proto ~n:7 ~f:2 ~clients:4 ~seed:99
    ~until:6.0
    ~faults:{ D.drop = 0.1; duplicate = 0.15; extra_delay = 0.005 }

(* Broadcasts that lose some recipients to the loss draw. *)
let test_crashed_recipient () =
  let proto = Marlin_runtime.Registry.find_exn "chained-marlin" in
  check_same_seed "chained-marlin+drop" proto ~n:10 ~f:3 ~clients:4 ~seed:7
    ~until:5.0
    ~faults:{ D.no_faults with D.drop = 0.2 }

(* Two seeds: the verdict must be [Error] and name the first trace index at
   which the runs differ — the traces agree before it and differ at it. *)
let test_seeds_diverge () =
  let proto = Marlin_runtime.Registry.find_exn "marlin" in
  let run seed =
    D.run proto ~n:4 ~f:1 ~clients:4 ~seed ~until:2.0 ~faults:D.no_faults
  in
  let a = run 1 and b = run 2 in
  match D.compare a b with
  | Ok () -> Alcotest.fail "runs on different seeds compared equal"
  | Error msg ->
      let i = Scanf.sscanf msg "trace diverges at event %d" Fun.id in
      let prefix l = List.filteri (fun j _ -> j < i) l in
      Alcotest.(check (list string)) "traces agree before the index"
        (prefix a.D.trace) (prefix b.D.trace);
      Alcotest.(check bool) "traces differ at the index" false
        (List.nth_opt a.D.trace i = List.nth_opt b.D.trace i)

let () =
  let per_protocol =
    List.concat_map protocol_case (Marlin_runtime.Registry.all ())
  in
  Alcotest.run "differential"
    [
      (* The group name is older than the single broadcast path; it is
         kept so these cases keep their ids in test histories. *)
      ("reference vs fan-out", per_protocol);
      ( "faults",
        [
          Alcotest.test_case "lossy+duplicating network identical" `Slow
            test_faulty_network;
          Alcotest.test_case "dropped recipients identical" `Slow
            test_crashed_recipient;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "different seeds name the first differing event"
            `Quick test_seeds_diverge;
        ] );
    ]
