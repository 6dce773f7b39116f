(* Tests for the time-resolved observability layer: window bucketing at
   boundaries, explicit zero windows, segment binning conservation, JSON
   determinism across same-seed runs, the bottleneck classifier, and the
   zero-cost-when-disabled guarantee (a run without windows allocates no
   window state and its hooks stay allocation-free). *)

module Obs = Marlin_obs
module Timeseries = Marlin_obs.Timeseries
module Bottleneck = Marlin_obs.Bottleneck
module Span = Marlin_obs.Span
module Cluster = Marlin_runtime.Cluster
module Mempool = Marlin_runtime.Mempool
module Experiment = Marlin_runtime.Experiment
module Workload = Marlin_workload.Workload
module Arrival = Marlin_workload.Arrival
module Stats = Marlin_analysis.Stats

let marlin : Marlin_core.Consensus_intf.protocol =
  (module Marlin_runtime.Registry.Chained_marlin)

(* ---------- window bucketing ---------- *)

let test_boundary_bucketing () =
  let ts = Timeseries.create ~width:0.5 () in
  (* strictly inside window 0 *)
  Timeseries.note_completion ts ~time:0.49 ~latency:0.1;
  (* exactly on the boundary: floor semantics put it in window 1 *)
  Timeseries.note_completion ts ~time:0.5 ~latency:0.2;
  (* just after the boundary: window 1 too *)
  Timeseries.note_completion ts ~time:0.51 ~latency:0.3;
  match Timeseries.windows ts with
  | [ w0; w1 ] ->
      Alcotest.(check int) "window 0 index" 0 w0.Timeseries.index;
      Alcotest.(check int) "window 0 committed" 1 w0.Timeseries.committed;
      Alcotest.(check int) "window 1 committed" 2 w1.Timeseries.committed;
      Alcotest.(check int) "window 1 latency count" 2
        w1.Timeseries.latency.Stats.count
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws)

let test_explicit_zero_windows () =
  let ts = Timeseries.create ~width:1.0 () in
  Timeseries.note_completion ts ~time:0.5 ~latency:0.1;
  (* nothing in windows 1..3 *)
  Timeseries.note_completion ts ~time:4.5 ~latency:0.1;
  let ws = Timeseries.windows ts in
  Alcotest.(check int) "all five windows materialize" 5 (List.length ws);
  List.iteri
    (fun i w ->
      Alcotest.(check int) "indices are consecutive" i w.Timeseries.index;
      if i >= 1 && i <= 3 then begin
        Alcotest.(check int) "empty window commits zero" 0
          w.Timeseries.committed;
        Alcotest.(check int) "empty window latency count zero" 0
          w.Timeseries.latency.Stats.count;
        Alcotest.(check (float 0.)) "empty window attributed zero" 0.
          w.Timeseries.attributed
      end)
    ws;
  (* and they are present in the JSON, not omitted *)
  let json = Timeseries.to_json ts in
  List.iter
    (fun idx ->
      let needle = Printf.sprintf {|"index":%d|} idx in
      let found =
        let n = String.length json and m = String.length needle in
        let rec go i = i + m <= n && (String.sub json i m = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "window %d rendered" idx)
        true found)
    [ 0; 1; 2; 3; 4 ]

let test_ring_drops_oldest () =
  let ts = Timeseries.create ~capacity:4 ~width:1.0 () in
  for i = 0 to 9 do
    Timeseries.note_completion ts ~time:(float_of_int i +. 0.5) ~latency:0.1
  done;
  (* a write into an evicted window is ignored, not resurrected *)
  Timeseries.note_completion ts ~time:0.5 ~latency:9.9;
  let ws = Timeseries.windows ts in
  Alcotest.(check int) "ring keeps capacity windows" 4 (List.length ws);
  Alcotest.(check int) "oldest kept window" 6
    (List.hd ws).Timeseries.index

(* ---------- segment binning conserves durations ---------- *)

let segment component start_time stop_time =
  { Span.component; start_time; stop_time; replica = 0; phase = "" }

let span segments ~propose_time ~commit_time =
  {
    Span.replica = 0;
    height = 1;
    view = 0;
    blocks = 1;
    ops = 1;
    propose_time;
    commit_time;
    segments;
    complete = true;
  }

let test_binning_conservation () =
  let ts = Timeseries.create ~width:0.25 () in
  (* a span crossing three windows, with segments not aligned to any
     boundary *)
  let sp =
    span
      [
        segment Span.Cpu 0.1 0.3;
        segment Span.Nic_queue 0.3 0.33;
        segment Span.Serialize 0.33 0.4;
        segment Span.Propagate 0.4 0.62;
        segment Span.Quorum_wait 0.62 0.8;
      ]
      ~propose_time:0.1 ~commit_time:0.8
  in
  Timeseries.bin_segments ts [ sp ];
  let ws = Timeseries.windows ts in
  Alcotest.(check int) "three windows touched" 4 (List.length ws);
  (* per window: component columns sum to the attributed total *)
  List.iter
    (fun w ->
      let sum =
        List.fold_left
          (fun acc c -> acc +. Timeseries.component_seconds w c)
          0. Span.all_components
      in
      Alcotest.(check bool)
        (Printf.sprintf "window %d conserves" w.Timeseries.index)
        true
        (Float.abs (sum -. w.Timeseries.attributed) <= 1e-9))
    ws;
  (* and across windows: every segment's full duration landed somewhere *)
  let total =
    List.fold_left (fun acc w -> acc +. w.Timeseries.attributed) 0. ws
  in
  Alcotest.(check bool) "total attributed = span total" true
    (Float.abs (total -. 0.7) <= 1e-9);
  (* a boundary-aligned stop contributes nothing to the next window *)
  let cpu_w2 =
    Timeseries.component_seconds (List.nth ws 2) Span.Cpu
  in
  Alcotest.(check bool) "no cpu leaked into window 2" true (cpu_w2 <= 1e-12)

let test_incomplete_spans_skipped () =
  let ts = Timeseries.create ~width:0.25 () in
  let sp =
    { (span [ segment Span.Cpu 0.1 0.3 ] ~propose_time:0.1 ~commit_time:0.8)
      with Span.complete = false }
  in
  Timeseries.bin_segments ts [ sp ];
  Alcotest.(check bool) "partial spans are not binned" true
    (Timeseries.is_empty ts)

(* ---------- verdicts ---------- *)

let test_quorum_wait_verdict () =
  (* hand-built saturated picture: quorum-wait dominates the critical
     path and the p99 blew the cap, so drops do not excuse it *)
  let ts = Timeseries.create ~width:0.25 () in
  let sp =
    span
      [
        segment Span.Cpu 0.0 0.05;
        segment Span.Quorum_wait 0.05 0.95;
        segment Span.Propagate 0.95 1.0;
      ]
      ~propose_time:0.0 ~commit_time:1.0
  in
  Timeseries.bin_segments ts [ sp ];
  let v =
    Bottleneck.classify ~drop_rate:0.4 ~shed:400 ~rejected:0
      ~peak_occupancy:8000 ~latency_p99:2.5 ts
  in
  Alcotest.(check string) "saturated trace verdict" "quorum-wait"
    (Bottleneck.name v.Bottleneck.bottleneck);
  let qw_share =
    List.assoc Span.Quorum_wait v.Bottleneck.evidence.Bottleneck.shares
  in
  Alcotest.(check bool) "quorum-wait share is dominant" true (qw_share > 0.85)

let test_backpressure_verdict () =
  (* heavy drops while the latency tail stays inside the cap: admission
     control binds, not the pipeline *)
  let ts = Timeseries.create ~width:0.25 () in
  Timeseries.bin_segments ts
    [ span [ segment Span.Cpu 0.0 0.2 ] ~propose_time:0.0 ~commit_time:0.2 ];
  let v =
    Bottleneck.classify ~drop_rate:0.3 ~shed:300 ~rejected:10
      ~peak_occupancy:8000 ~latency_p99:0.2 ts
  in
  Alcotest.(check string) "drops under the cap" "mempool-backpressure"
    (Bottleneck.name v.Bottleneck.bottleneck)

let test_livelock_verdict () =
  (* no commits, no drops: waiting forever for certificates *)
  let ts = Timeseries.create ~width:0.25 () in
  let v =
    Bottleneck.classify ~drop_rate:0. ~shed:0 ~rejected:0 ~peak_occupancy:10
      ~latency_p99:0. ts
  in
  Alcotest.(check string) "empty run verdict" "quorum-wait"
    (Bottleneck.name v.Bottleneck.bottleneck)

(* ---------- end to end: windowed JSON is a function of the seed ---------- *)

let open_params =
  {
    Cluster.default_params with
    Cluster.workload =
      Workload.open_loop
        ~arrival:(Arrival.poisson ~rate:2_000.)
        ~key_space:100_000 ~sources:2 ();
    mempool = Mempool.Config.make ~capacity:2_000 ~per_client_cap:4 ();
    batch_max = 500;
  }

(* a traced run with 0.25 s windows: the driver folds the span segments
   into its windows *)
let windowed_run () =
  let obs =
    Obs.Run.create ~trace:true ~windows:0.25 ~n:open_params.Cluster.n ()
  in
  ignore
    (Experiment.run marlin
       ~params:{ open_params with Cluster.obs = Some obs }
       (Experiment.Open { warmup = 0.5; duration = 1.0 })
      : Experiment.open_loop_result);
  match Obs.Run.timeseries obs with
  | Some ts -> ts
  | None -> Alcotest.fail "the windowed run has no timeseries"

let windowed_json () = Timeseries.to_json (windowed_run ())

let test_same_seed_byte_identical () =
  let a = windowed_json () and b = windowed_json () in
  Alcotest.(check bool) "windowed JSON byte-identical" true (String.equal a b);
  (* sanity: the run actually produced windows with attribution *)
  Alcotest.(check bool) "some window content" true (String.length a > 100)

let test_live_run_conserves () =
  let ws = Timeseries.windows (windowed_run ()) in
  Alcotest.(check bool) "windows exist" true (List.length ws > 3);
  List.iter
    (fun w ->
      let sum =
        List.fold_left
          (fun acc c -> acc +. Timeseries.component_seconds w c)
          0. Span.all_components
      in
      Alcotest.(check bool)
        (Printf.sprintf "live window %d conserves" w.Timeseries.index)
        true
        (Float.abs (sum -. w.Timeseries.attributed) <= 1e-9))
    ws;
  Alcotest.(check bool) "something was attributed" true
    (List.exists (fun w -> w.Timeseries.attributed > 0.) ws);
  Alcotest.(check bool) "something committed" true
    (List.exists (fun w -> w.Timeseries.committed > 0) ws)

(* ---------- zero cost when disabled ---------- *)

let test_disabled_run_has_no_window_state () =
  let run = Obs.Run.create ~n:4 () in
  Alcotest.(check bool) "no timeseries without ?windows" true
    (Obs.Run.timeseries run = None);
  (* the runtime guard pattern on a window-less run must not allocate:
     the option match is written inline at the call site (see cluster.ml)
     so no float crosses a function boundary when windows are off *)
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    let time = float_of_int i *. 1e-4 in
    (match Obs.Run.timeseries run with
    | None -> ()
    | Some ts -> Obs.Timeseries.note_completion ts ~time ~latency:0.05);
    match Obs.Run.timeseries run with
    | None -> ()
    | Some ts -> Obs.Timeseries.note_shed ts ~time
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "no-window guard allocated %.0f words" words)
    true (words < 1024.)

let test_enabled_hot_path_alloc_bound () =
  let run = Obs.Run.create ~windows:0.25 ~n:4 () in
  let ts =
    match Obs.Run.timeseries run with Some ts -> ts | None -> assert false
  in
  (* warm the reservoirs and touch the windows once *)
  Obs.Timeseries.note_completion ts ~time:0.1 ~latency:0.05;
  Obs.Timeseries.note_shed ts ~time:0.1;
  let iters = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to iters do
    let time = float_of_int i *. 1e-5 in
    Obs.Timeseries.note_completion ts ~time ~latency:0.05;
    Obs.Timeseries.note_shed ts ~time
  done;
  let words = Gc.minor_words () -. before in
  (* window cells are in-place array stores, so the only allocation is the
     boxing of float arguments at the two calls — a small constant per
     feed, independent of how many windows the run has touched *)
  Alcotest.(check bool)
    (Printf.sprintf "windowed hot path allocated %.0f words (%d feeds)"
       words iters)
    true (words < 16. *. float_of_int iters)

let suite =
  [
    Alcotest.test_case "boundary bucketing" `Quick test_boundary_bucketing;
    Alcotest.test_case "explicit zero windows" `Quick
      test_explicit_zero_windows;
    Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
    Alcotest.test_case "binning conserves durations" `Quick
      test_binning_conservation;
    Alcotest.test_case "incomplete spans skipped" `Quick
      test_incomplete_spans_skipped;
    Alcotest.test_case "saturated verdict is quorum-wait" `Quick
      test_quorum_wait_verdict;
    Alcotest.test_case "drops under cap are backpressure" `Quick
      test_backpressure_verdict;
    Alcotest.test_case "livelock verdict" `Quick test_livelock_verdict;
    Alcotest.test_case "same seed, byte-identical JSON" `Quick
      test_same_seed_byte_identical;
    Alcotest.test_case "live run conserves per window" `Quick
      test_live_run_conserves;
    Alcotest.test_case "disabled run: no window state" `Quick
      test_disabled_run_has_no_window_state;
    Alcotest.test_case "enabled hot path alloc bound" `Quick
      test_enabled_hot_path_alloc_bound;
  ]

let () = Alcotest.run "timeseries" [ ("timeseries", suite) ]
