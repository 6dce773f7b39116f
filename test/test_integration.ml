(* Integration tests: full simulated clusters (network + CPU + disk models,
   closed-loop clients) running the chained protocols — the configuration
   every benchmark uses, at a small scale. That every protocol commits in
   such a cluster is a case of test_protocols. *)

module C = Marlin_core.Consensus_intf
module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Netsim = Marlin_sim.Netsim

let marlin : C.protocol = (module Marlin_runtime.Registry.Chained_marlin)
let hotstuff : C.protocol = (module Marlin_runtime.Registry.Chained_hotstuff)
let basic_marlin : C.protocol = (module Marlin_runtime.Registry.Marlin)
let basic_hotstuff : C.protocol = (module Marlin_runtime.Registry.Hotstuff)
let pbft : C.protocol = (module Marlin_core.Pbft)

let small_params ?(clients = 16) () =
  {
    (Cluster.params_for_f
       ~workload:(Marlin_workload.Workload.closed_loop ~clients) 1)
    with
    Cluster.seed = 7;
  }

(* a closed-loop measurement window with every replica up *)
let window warmup duration =
  Experiment.Closed { warmup; duration; crashed = [] }

let view_change force_unhappy = Experiment.View_change { force_unhappy }

(* The headline comparison: two phases beat three. At light load Marlin's
   client latency must be strictly lower, and its throughput at a fixed
   client count strictly higher. *)
let test_marlin_beats_hotstuff () =
  let params = small_params ~clients:32 () in
  let m = Experiment.run marlin ~params (window 1.0 4.0) in
  let h = Experiment.run hotstuff ~params (window 1.0 4.0) in
  let open Marlin_analysis.Stats in
  Alcotest.(check bool) "Marlin latency lower" true
    (m.Experiment.latency.mean < h.Experiment.latency.mean);
  Alcotest.(check bool) "Marlin throughput higher" true
    (m.Experiment.throughput > h.Experiment.throughput)

let test_view_change_recovers () =
  let params = small_params () in
  let r = Experiment.run marlin ~params (view_change false) in
  Alcotest.(check bool) "view change completed" true
    (Float.is_finite r.Experiment.vc_latency);
  Alcotest.(check bool) "latency positive" true (r.Experiment.vc_latency > 0.);
  Alcotest.(check bool) "sub-second at f=1" true (r.Experiment.vc_latency < 1.0);
  Alcotest.(check bool) "happy path (no pre-prepare)" false r.Experiment.unhappy

let test_forced_unhappy_view_change () =
  let params = small_params () in
  let r = Experiment.run marlin ~params (view_change true) in
  Alcotest.(check bool) "view change completed" true
    (Float.is_finite r.Experiment.vc_latency);
  Alcotest.(check bool) "unhappy path ran" true r.Experiment.unhappy;
  let happy = Experiment.run marlin ~params (view_change false) in
  Alcotest.(check bool) "unhappy slower than happy" true
    (r.Experiment.vc_latency > happy.Experiment.vc_latency)

let test_hotstuff_view_change () =
  let r = Experiment.run hotstuff ~params:(small_params ()) (view_change false) in
  Alcotest.(check bool) "completed" true (Float.is_finite r.Experiment.vc_latency);
  let m = Experiment.run marlin ~params:(small_params ()) (view_change false) in
  Alcotest.(check bool) "Marlin happy VC faster than HotStuff" true
    (m.Experiment.vc_latency < r.Experiment.vc_latency)

let test_rotating_leaders () =
  let params =
    { (small_params ()) with Cluster.rotation = Some 0.5; base_timeout = 0.4 }
  in
  let r = Experiment.run marlin ~params (window 1.0 4.0) in
  Alcotest.(check bool) "agreement under rotation" true r.Experiment.agreement;
  Alcotest.(check bool) "commits under rotation" true (r.Experiment.throughput > 0.)

let test_rotation_under_crashes () =
  let params =
    {
      (Cluster.params_for_f
         ~workload:(Marlin_workload.Workload.closed_loop ~clients:24) 3)
      with
      Cluster.rotation = Some 0.5;
      base_timeout = 0.4;
      seed = 11;
    }
  in
  (* The Figure 10j path, pinned: the run is deterministic, so the ops
     executed in the window are exact. Crashing replica n-1 (and n-2)
     makes the probe fall back to the next live id. *)
  let tputs =
    List.map
      (fun (crashed, executed) ->
        let r =
          Experiment.run marlin ~params
            (Experiment.Closed { warmup = 1.0; duration = 5.0; crashed })
        in
        let name = String.concat "," (List.map string_of_int crashed) in
        Alcotest.(check int) ("executed, crashed=[" ^ name ^ "]") executed
          r.Experiment.executed;
        Alcotest.(check bool) ("agreement, crashed=[" ^ name ^ "]") true
          r.Experiment.agreement;
        r.Experiment.throughput)
      [ ([], 360); ([ 9 ], 301); ([ 8; 9 ], 206); ([ 5; 7; 9 ], 138) ]
  in
  Alcotest.(check bool) "every cluster still commits" true
    (List.for_all (fun t -> t > 0.) tputs);
  let rec degrading = function
    | a :: (b :: _ as rest) -> a > b && degrading rest
    | _ -> true
  in
  Alcotest.(check bool) "each crash degrades throughput" true (degrading tputs)

let test_noop_faster () =
  let params = small_params ~clients:64 () in
  let with_payload = Experiment.run marlin ~params (window 1.0 3.0) in
  let noop =
    Experiment.run marlin
      ~params:{ params with Cluster.op_size = 0 }
      (window 1.0 3.0)
  in
  Alcotest.(check bool) "no-op at least as fast" true
    (noop.Experiment.throughput >= with_payload.Experiment.throughput *. 0.95)

(* Section II of the paper: client-to-client latency is 5 hops for PBFT,
   7 for two-phase HotStuff variants (Marlin), 9 for HotStuff. At light
   load the measured latencies must be ordered accordingly. *)
let test_latency_hop_ordering () =
  let params = small_params ~clients:4 () in
  let lat proto =
    (Experiment.run proto ~params (window 1.0 3.0))
      .Experiment.latency.Marlin_analysis.Stats.mean
  in
  let p = lat pbft and m = lat basic_marlin and h = lat basic_hotstuff in
  Alcotest.(check bool) "PBFT < Marlin" true (p < m);
  Alcotest.(check bool) "Marlin < HotStuff" true (m < h);
  (* rough hop ratios: 5 : 7 : 9 (batching adds a half-interval of queueing
     to each, so allow generous slack) *)
  Alcotest.(check bool) "ratio order of magnitude" true
    (m /. p < 2.0 && h /. m < 2.0)

let test_sweep_and_peak () =
  let results =
    Experiment.sweep marlin ~params:(small_params ()) ~warmup:1.0 ~duration:2.0
      ~client_counts:[ 4; 16; 64 ]
  in
  Alcotest.(check int) "three points" 3 (List.length results);
  let peak, _within = Experiment.peak results in
  Alcotest.(check bool) "peak at higher client count" true
    (peak.Experiment.clients >= 16);
  (* more clients, more throughput (far from saturation at this scale) *)
  let tputs = List.map (fun r -> r.Experiment.throughput) results in
  Alcotest.(check bool) "monotone growth" true
    (List.sort compare tputs = tputs)

let test_larger_cluster () =
  let params =
    {
      (Cluster.params_for_f
         ~workload:(Marlin_workload.Workload.closed_loop ~clients:32) 3)
      with
      Cluster.seed = 3;
    }
  in
  let r = Experiment.run marlin ~params (window 1.0 3.0) in
  Alcotest.(check bool) "n=10 agreement" true r.Experiment.agreement;
  Alcotest.(check bool) "n=10 commits" true (r.Experiment.throughput > 0.)

(* A leader that completes a view change emits one view-change-exit for
   it, whichever path (happy or forced-unhappy) the view change takes. *)
let test_one_view_change_exit () =
  List.iter
    (fun (name, proto) ->
      List.iter
        (fun force_unhappy ->
          let obs = Marlin_obs.Run.create ~trace:true ~n:4 () in
          let params = { (small_params ()) with Cluster.obs = Some obs } in
          ignore (Experiment.run proto ~params (view_change force_unhappy));
          let exits =
            List.filter_map
              (fun (e : Marlin_obs.Trace.event) ->
                match e.Marlin_obs.Trace.kind with
                | Marlin_obs.Trace.View_change_exit ->
                    Some (e.Marlin_obs.Trace.replica, e.Marlin_obs.Trace.view)
                | _ -> None)
              (Marlin_obs.Run.trace_events obs)
          in
          let label =
            Printf.sprintf "%s%s" name (if force_unhappy then " (unhappy)" else "")
          in
          Alcotest.(check bool) (label ^ ": a view change completed") true
            (exits <> []);
          Alcotest.(check int)
            (label ^ ": one exit per (replica, view)")
            (List.length (List.sort_uniq compare exits))
            (List.length exits))
        [ false; true ])
    (Marlin_runtime.Registry.all ())

let suite =
  [
    ("marlin beats hotstuff", `Quick, test_marlin_beats_hotstuff);
    ("view change recovers (happy)", `Quick, test_view_change_recovers);
    ("forced unhappy view change", `Quick, test_forced_unhappy_view_change);
    ("hotstuff view change", `Quick, test_hotstuff_view_change);
    ("rotating leaders", `Quick, test_rotating_leaders);
    ("rotation under crashes", `Quick, test_rotation_under_crashes);
    ("no-op requests faster", `Quick, test_noop_faster);
    ("latency hop ordering (PBFT < Marlin < HotStuff)", `Quick, test_latency_hop_ordering);
    ("sweep and peak", `Quick, test_sweep_and_peak);
    ("larger cluster (f=3)", `Quick, test_larger_cluster);
    ("one view-change exit per replica and view, every protocol", `Quick,
     test_one_view_change_exit);
  ]

let () = Alcotest.run "integration" [ ("integration", suite) ]
