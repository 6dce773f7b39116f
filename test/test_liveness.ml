(* The Figure 2 experiment: the same adversarial view-change schedule is
   run against "two-phase HotStuff (insecure)" (Section IV-B) and against
   Marlin.

   Schedule (4 replicas, replica 0 Byzantine):
   - block b1 commits normally in view 0;
   - block b2 reaches a prepareQC, but only replica 2 receives it and
     locks on it;
   - a view change elects replica 1, whose snapshot is unsafe: replica 2's
     message is late (dropped) and Byzantine replica 0 hides the b2 QC.

   The insecure protocol proposes a conflicting extension of b1; replica 2
   refuses (it is locked, and nothing can unlock it), the quorum cannot
   complete, and no operation commits in the view. Marlin's pre-prepare
   phase instead lets replicas *vote* on the highest QC: replica 2 votes
   for the virtual shadow block and attaches its lockedQC (rule R2), the
   virtual block forms a pre-prepareQC, and the chain — including the
   hidden b2 — commits. *)

open Marlin_types
module Qc = Marlin_types.Qc

module Insecure = struct
  module P = Marlin_core.Twophase_insecure
  module H = Test_support.Harness.Make (P)
end

module M = struct
  module P = Marlin_runtime.Registry.Marlin
  module H = Test_support.Harness.Make (P)
end

let test_insecure_livelock () =
  let module P = Insecure.P in
  let module H = Insecure.H in
  let t = H.create () in
  H.start t;
  (* Commit b1, then let b2 reach a prepareQC that only replica 2 sees. *)
  H.hide_lock t ~locked:(Some 2);
  Alcotest.(check int) "b1 committed" 1 (H.min_committed t);
  let locked2 = P.locked_qc (H.proto t 2) in
  Alcotest.(check int) "replica 2 locked at height 2" 2 locked2.Qc.block.Qc.height;
  (* Unsafe snapshot: drop replica 2's NEW-VIEW, forge replica 0's to hide
     qc(b2), silence replica 0's votes afterwards. *)
  let qc_b1 = H.unsafe_snapshot t in
  Alcotest.(check int) "replica 1 only knows qc(b1)" 1 qc_b1.Qc.block.Qc.height;
  H.timeout_all t;
  (* The leader proposed a conflicting extension of b1; replica 2 refused;
     the quorum never completed: no operation committed in view 1. *)
  Alcotest.(check int) "view advanced" 1 (P.current_view (H.proto t 1));
  Alcotest.(check int) "b2 never committed anywhere" 1 (H.max_committed t);
  Alcotest.(check bool) "replica 2 rejected the conflicting proposal" true
    (P.rejected_proposals (H.proto t 2) > 0);
  (* Even retrying within the view cannot help: the lock is permanent. *)
  H.submit t (Operation.make ~client:1 ~seq:3 ~body:"b3");
  Alcotest.(check int) "still stuck" 1 (H.max_committed t)

let test_marlin_same_schedule_recovers () =
  let module H = M.H in
  let t = H.create () in
  H.start t;
  H.hide_lock t ~locked:(Some 2);
  ignore (H.unsafe_snapshot t);
  H.timeout_all t;
  H.clear_filter t;
  (* Same unsafe snapshot, same Byzantine hider — but Marlin commits. *)
  Alcotest.(check bool) "Marlin commits despite the unsafe snapshot" true
    (H.min_committed t >= 2);
  Alcotest.(check bool) "the hidden b2 itself is committed" true
    (List.exists (fun o -> o.Operation.body = "b2") (H.committed_ops t 3));
  Alcotest.(check bool) "safety holds" true (H.check_safety t)

(* ---------- liveness resumes after GST / heal (simulated cluster) ---- *)

(* The partial-synchrony story, against the real simulator: while the
   network is partitioned (no side holds a quorum) or pre-GST lossy, no
   progress is required — but once Netsim.Fault.heal fires, commits must
   resume, and nothing seen in between may violate agreement. *)
let run_scenario_for name (sc : Marlin_faults.Scenario.t) =
  Marlin_runtime.Experiment.run
    (Marlin_runtime.Registry.find_exn name)
    ~params:(Marlin_runtime.Cluster.params_for_f sc.Marlin_faults.Scenario.f)
    (Marlin_runtime.Experiment.Scenario sc)

let test_liveness_resumes_after_heal () =
  List.iter
    (fun name ->
      let r = run_scenario_for name Marlin_faults.Catalogue.partition_heal in
      Alcotest.(check bool) (name ^ ": commits resume after heal") true
        r.Marlin_runtime.Experiment.recovered;
      Alcotest.(check bool) (name ^ ": agreement across the partition") true
        r.Marlin_runtime.Experiment.agreement)
    [ "marlin"; "hotstuff" ]

let test_liveness_resumes_after_gst () =
  List.iter
    (fun name ->
      let r = run_scenario_for name Marlin_faults.Catalogue.pre_gst_churn in
      Alcotest.(check bool) (name ^ ": commits resume after GST") true
        r.Marlin_runtime.Experiment.recovered;
      Alcotest.(check bool) (name ^ ": agreement despite pre-GST loss") true
        r.Marlin_runtime.Experiment.agreement)
    [ "marlin"; "hotstuff" ]

let suite =
  [
    ("two-phase insecure: Figure 2b livelock", `Quick, test_insecure_livelock);
    ("Marlin: same schedule recovers (Figure 2c)", `Quick, test_marlin_same_schedule_recovers);
    ("liveness resumes after heal (partition)", `Quick, test_liveness_resumes_after_heal);
    ("liveness resumes after GST (pre-GST churn)", `Quick, test_liveness_resumes_after_gst);
  ]

let () = Alcotest.run "liveness" [ ("liveness", suite) ]
