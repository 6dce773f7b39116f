(* Tests for the causal span profiler (marlin_obs Span / Critical_path /
   Trace_reader / Json_lite): hand-built traces with known expected
   decompositions, the attribution sum property on real runs, the
   two-vs-three quorum-wait phase count, and the JSONL round trip. *)

module C = Marlin_core.Consensus_intf
module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Obs = Marlin_obs
module Span = Marlin_obs.Span
module Trace = Marlin_obs.Trace
module J = Marlin_obs.Json_lite
module Stats = Marlin_analysis.Stats

let basic_marlin : C.protocol = (module Marlin_runtime.Registry.Marlin)
let basic_hotstuff : C.protocol = (module Marlin_runtime.Registry.Hotstuff)
let chained_marlin : C.protocol = (module Marlin_runtime.Registry.Chained_marlin)
let pbft : C.protocol = (module Marlin_core.Pbft)

let feq = Alcotest.check (Alcotest.float 1e-9)

let ev ?(view = 0) ?(height = 1) ~time ~replica kind =
  { Trace.time; replica; view; height; kind }

(* ---------- hand-built traces ---------- *)

(* Two replicas, one block, every instant chosen by hand:

     r0 proposes at 10.000, hands the PROPOSE to its NIC at 10.001
        (queued until 10.002, 3 ms on the wire, arrives 10.045)
     r1 handles it, votes at 10.046, vote departs immediately, r0
        receives it and forms the prepare QC at 10.088
     r0 commits at 10.090

   The walk must decompose the 90 ms end to end as
     cpu 4 ms = (10.000-10.001) + (10.045-10.046) + (10.088-10.090)
     nic-queue 1 ms, serialize 3 ms, propagate 40 ms (the PROPOSE leg)
     quorum-wait 42 ms = vote signed 10.046 -> QC formed 10.088. *)
let tiny_trace () =
  [
    ev ~time:10.0 ~replica:0 (Trace.Propose { txs = 1 });
    ev ~time:10.0 ~replica:0
      (Trace.Net_queued
         {
           id = 0;
           src = 0;
           dst = 1;
           size = 400;
           msg = "PROPOSE";
           ready = 10.001;
           depart = 10.002;
           tx = 0.003;
         });
    ev ~time:10.045 ~replica:1
      (Trace.Net_delivered
         { id = 0; src = 0; dst = 1; size = 400; msg = "PROPOSE" });
    ev ~time:10.046 ~replica:1 (Trace.Vote_sent { phase = "prepare" });
    ev ~time:10.046 ~replica:1
      (Trace.Net_queued
         {
           id = 1;
           src = 1;
           dst = 0;
           size = 120;
           msg = "VOTE-PREPARE";
           ready = 10.047;
           depart = 10.047;
           tx = 0.001;
         });
    ev ~time:10.088 ~replica:0
      (Trace.Net_delivered
         { id = 1; src = 1; dst = 0; size = 120; msg = "VOTE-PREPARE" });
    ev ~time:10.088 ~replica:0 (Trace.Qc_formed { phase = "prepare" });
    ev ~time:10.090 ~replica:0 (Trace.Commit { blocks = 1; ops = 1 });
  ]

(* The tiny trace extended across a view change: after committing, r0
   ships the certificate to r1, which commits the same block in the new
   view. Timer and view-change noise events must not disturb the walk,
   and r1's span must chain through the certificate delivery back to the
   original proposal. *)
let cross_view_trace () =
  tiny_trace ()
  @ [
      ev ~time:10.090 ~replica:0 (Trace.Timer_fired { cause = "view-progress" });
      ev ~time:10.090 ~replica:0 Trace.View_change_enter;
      ev ~time:10.090 ~replica:0
        (Trace.Net_queued
           {
             id = 2;
             src = 0;
             dst = 1;
             size = 200;
             msg = "CERT-PREPARE";
             ready = 10.091;
             depart = 10.092;
             tx = 0.002;
           });
      ev ~time:10.091 ~replica:1 ~view:1 (Trace.View_enter { cause = "timeout" });
      ev ~time:10.134 ~replica:1
        (Trace.Net_delivered
           { id = 2; src = 0; dst = 1; size = 200; msg = "CERT-PREPARE" });
      ev ~time:10.135 ~replica:1 ~view:1 (Trace.Commit { blocks = 1; ops = 1 });
    ]

let component_totals (s : Span.t) =
  List.map (fun c -> (c, Span.component_total s c)) Span.all_components

let test_tiny_trace () =
  match Span.reconstruct (tiny_trace ()) with
  | [ s ] ->
      Alcotest.(check bool) "complete" true s.Span.complete;
      Alcotest.(check int) "committing replica" 0 s.Span.replica;
      feq "anchored at the proposal" 10.0 s.Span.propose_time;
      feq "total" 0.090 (Span.total s);
      feq "attributed = total" (Span.total s) (Span.attributed s);
      Alcotest.(check int) "segments" 7 (List.length s.Span.segments);
      Alcotest.(check int) "one certificate on the path" 1
        (Span.quorum_waits s);
      List.iter
        (fun (c, expected) ->
          feq (Span.component_name c) expected
            (Span.component_total s c))
        [
          (Span.Cpu, 0.004);
          (Span.Nic_queue, 0.001);
          (Span.Serialize, 0.003);
          (Span.Propagate, 0.040);
          (Span.Quorum_wait, 0.042);
        ];
      (* segments are contiguous and oldest-first *)
      ignore
        (List.fold_left
           (fun prev (seg : Span.segment) ->
             Alcotest.(check bool) "segment starts where the last stopped"
               true
               (Float.abs (seg.Span.start_time -. prev) < 1e-12);
             seg.Span.stop_time)
           10.0 s.Span.segments);
      (* the quorum wait is labelled with its certificate phase *)
      List.iter
        (fun (seg : Span.segment) ->
          if seg.Span.component = Span.Quorum_wait then
            Alcotest.(check string) "phase label" "prepare" seg.Span.phase)
        s.Span.segments
  | spans ->
      Alcotest.failf "expected exactly one span, got %d" (List.length spans)

let test_cross_view_trace () =
  match Span.reconstruct (cross_view_trace ()) with
  | [ s0; s1 ] ->
      (* the leader's span is unchanged by the appended noise *)
      feq "r0 total" 0.090 (Span.total s0);
      (* r1's commit chains through the certificate back to the proposal *)
      Alcotest.(check bool) "r1 complete" true s1.Span.complete;
      Alcotest.(check int) "r1 committed" 1 s1.Span.replica;
      Alcotest.(check int) "r1 commit view" 1 s1.Span.view;
      feq "r1 anchored at the same proposal" 10.0 s1.Span.propose_time;
      feq "r1 total" 0.135 (Span.total s1);
      feq "r1 attributed = total" (Span.total s1) (Span.attributed s1);
      Alcotest.(check int) "still one certificate on the path" 1
        (Span.quorum_waits s1);
      (* the certificate leg adds 2 ms queue+serialize and 40 ms flight *)
      feq "r1 propagate" 0.080 (Span.component_total s1 Span.Propagate);
      feq "r1 serialize" 0.005 (Span.component_total s1 Span.Serialize);
      feq "r1 nic-queue" 0.002 (Span.component_total s1 Span.Nic_queue)
  | spans ->
      Alcotest.failf "expected two spans, got %d" (List.length spans)

let test_partial_span () =
  (* strip the proposal: the walk cannot anchor, the span is partial and
     excluded from critical-path statistics but still counted *)
  let truncated = List.tl (tiny_trace ()) in
  (match Span.reconstruct truncated with
  | [ s ] -> Alcotest.(check bool) "partial" false s.Span.complete
  | _ -> Alcotest.fail "expected one span");
  let cp = Obs.Critical_path.analyze (Span.reconstruct truncated) in
  Alcotest.(check int) "counted" 1 cp.Obs.Critical_path.commits;
  Alcotest.(check int) "not attributed" 0 cp.Obs.Critical_path.complete

let test_critical_path_analysis () =
  let cp =
    Obs.Critical_path.analyze ~label:"tiny"
      (Span.reconstruct (cross_view_trace ()))
  in
  Alcotest.(check int) "commits" 2 cp.Obs.Critical_path.commits;
  Alcotest.(check int) "complete" 2 cp.Obs.Critical_path.complete;
  feq "quorum waits per commit" 1.0
    cp.Obs.Critical_path.quorum_waits_per_commit;
  feq "exact attribution" 0.0 cp.Obs.Critical_path.max_attribution_error;
  let shares =
    List.fold_left
      (fun acc (_, (st : Obs.Critical_path.component_stat)) ->
        acc +. st.Obs.Critical_path.share)
      0. cp.Obs.Critical_path.components
  in
  feq "shares sum to 1" 1.0 shares;
  (match cp.Obs.Critical_path.phase_waits with
  | [ ("prepare", s) ] -> Alcotest.(check int) "two prepare waits" 2 s.Stats.count
  | _ -> Alcotest.fail "expected exactly the prepare phase");
  (* the JSON payload parses and carries the same headline numbers *)
  let j = J.parse_exn (Obs.Critical_path.to_json cp) in
  Alcotest.(check (option string)) "label" (Some "tiny")
    (J.string_at [ "label" ] j);
  Alcotest.(check (option int)) "commits" (Some 2) (J.int_at [ "commits" ] j);
  match J.float_at [ "quorum_waits_per_commit" ] j with
  | Some q -> feq "waits round-trip" 1.0 q
  | None -> Alcotest.fail "quorum_waits_per_commit missing"

(* ---------- real runs: the paper's phase counts, exactly ---------- *)

let instrumented proto =
  let obs = Obs.Run.create ~trace:true ~n:4 () in
  let params = { (Cluster.params_for_f ~workload:(Marlin_workload.Workload.closed_loop ~clients:1) 1) with Cluster.seed = 9; obs = Some obs } in
  ( Experiment.run proto ~params
      (Experiment.Closed { warmup = 0.5; duration = 4.0; crashed = [] }),
    obs )

(* Marlin's critical path carries exactly 2 quorum-wait segments per
   commit; HotStuff's carries 3 — the protocols' phase counts, measured
   rather than asserted. PBFT commits after prepare+commit: 2. *)
let test_phase_counts () =
  List.iter
    (fun (name, proto, waits) ->
      let r, obs = instrumented proto in
      Alcotest.(check bool) (name ^ " agreement") true r.Experiment.agreement;
      let cp = Experiment.critical_path ~label:name obs in
      Alcotest.(check bool) (name ^ " commits seen") true
        (cp.Obs.Critical_path.commits > 5);
      Alcotest.(check int)
        (name ^ " every span complete")
        cp.Obs.Critical_path.commits cp.Obs.Critical_path.complete;
      feq
        (Printf.sprintf "%s quorum waits per commit = %d" name waits)
        (float_of_int waits) cp.Obs.Critical_path.quorum_waits_per_commit;
      Alcotest.(check int)
        (name ^ " one wait summary per phase")
        waits
        (List.length cp.Obs.Critical_path.phase_waits))
    [
      ("marlin", basic_marlin, 2);
      ("hotstuff", basic_hotstuff, 3);
      ("pbft", pbft, 2);
    ]

(* Per-component attribution sums to the measured end-to-end commit
   latency for every complete span — the decomposition drops nothing and
   double-counts nothing. Checked on all four protocols, chained Marlin
   included. *)
let test_attribution_sums () =
  List.iter
    (fun (name, proto) ->
      let _, obs = instrumented proto in
      let spans = Span.reconstruct (Obs.Run.trace_events obs) in
      Alcotest.(check bool) (name ^ " spans found") true (spans <> []);
      List.iter
        (fun s ->
          if s.Span.complete then begin
            Alcotest.(check bool)
              (Printf.sprintf "%s attribution exact (err %.3g)" name
                 (Float.abs (Span.total s -. Span.attributed s)))
              true
              (Float.abs (Span.total s -. Span.attributed s) <= 1e-9);
            let by_component =
              List.fold_left (fun acc (_, d) -> acc +. d) 0.
                (component_totals s)
            in
            Alcotest.(check bool) (name ^ " component totals cover segments")
              true
              (Float.abs (by_component -. Span.attributed s) <= 1e-9)
          end)
        spans)
    [
      ("marlin", basic_marlin);
      ("hotstuff", basic_hotstuff);
      ("chained-marlin", chained_marlin);
      ("pbft", pbft);
    ]

(* ---------- JSONL round trip ---------- *)

let test_trace_reader_roundtrip () =
  let _, obs = instrumented basic_marlin in
  let path = Filename.temp_file "marlin_prof" ".jsonl" in
  let oc = open_out path in
  Obs.Run.write_trace ~run:"m" oc obs;
  close_out oc;
  let entries = Obs.Trace_reader.read_file path in
  Sys.remove path;
  let direct = Obs.Run.trace_events obs in
  Alcotest.(check int) "every line parsed" (List.length direct)
    (List.length entries);
  (match Obs.Trace_reader.runs entries with
  | [ ("m", replayed) ] ->
      (* the replayed trace reconstructs the same critical path *)
      let a = Obs.Critical_path.analyze (Span.reconstruct direct) in
      let b = Obs.Critical_path.analyze (Span.reconstruct replayed) in
      Alcotest.(check int) "commits" a.Obs.Critical_path.commits
        b.Obs.Critical_path.commits;
      Alcotest.(check int) "complete" a.Obs.Critical_path.complete
        b.Obs.Critical_path.complete;
      feq "quorum waits"
        a.Obs.Critical_path.quorum_waits_per_commit
        b.Obs.Critical_path.quorum_waits_per_commit;
      (* timestamps were serialized at 1 ns resolution *)
      Alcotest.(check (float 1e-6))
        "end-to-end mean survives the round trip"
        a.Obs.Critical_path.end_to_end.Stats.mean
        b.Obs.Critical_path.end_to_end.Stats.mean;
      Alcotest.(check bool) "attribution stays within 1e-9" true
        (b.Obs.Critical_path.max_attribution_error <= 1e-9)
  | other ->
      Alcotest.failf "expected one run labelled m, got %d" (List.length other));
  match Obs.Trace_reader.parse_line "{\"event\":\"nope\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk line accepted"

(* ---------- Json_lite ---------- *)

let test_json_lite () =
  let j =
    J.parse_exn
      {|{"a":{"b":[1,2.5,-3e2]},"s":"x\"\\\nA","t":true,"n":null}|}
  in
  Alcotest.(check (option (float 1e-12))) "nested num" (Some 2.5)
    (match J.mem [ "a"; "b" ] j with
    | Some (J.Arr [ _; x; _ ]) -> J.to_float x
    | _ -> None);
  Alcotest.(check (option int)) "negative exponent form" (Some (-300))
    (match J.mem [ "a"; "b" ] j with
    | Some (J.Arr [ _; _; x ]) -> J.to_int x
    | _ -> None);
  Alcotest.(check (option string)) "escapes" (Some "x\"\\\nA")
    (J.string_at [ "s" ] j);
  Alcotest.(check (option bool)) "bool" (Some true) (J.bool_at [ "t" ] j);
  Alcotest.(check bool) "null present" true (J.member "n" j = Some J.Null);
  Alcotest.(check bool) "missing member" true (J.member "zzz" j = None);
  List.iter
    (fun bad ->
      match J.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{} trailing" ]

let suite =
  [
    ("tiny trace decomposes exactly", `Quick, test_tiny_trace);
    ("cross-view certificate chain", `Quick, test_cross_view_trace);
    ("partial span excluded from stats", `Quick, test_partial_span);
    ("critical-path analysis + JSON", `Quick, test_critical_path_analysis);
    ("marlin 2 waits, hotstuff 3, pbft 2", `Quick, test_phase_counts);
    ("attribution sums to commit latency", `Quick, test_attribution_sums);
    ("JSONL trace round trip", `Quick, test_trace_reader_roundtrip);
    ("json_lite parses its own dialect", `Quick, test_json_lite);
  ]

let () = Alcotest.run "prof" [ ("prof", suite) ]
