(* The Figure 2b experiment: an adversarial view-change schedule run
   against "two-phase HotStuff (insecure)" (Section IV-B).

   Schedule (4 replicas, replica 0 Byzantine):
   - block b1 commits normally in view 0;
   - block b2 reaches a prepareQC, but only replica 2 receives it and
     locks on it;
   - a view change elects replica 1, whose snapshot is unsafe: replica 2's
     message is late (dropped) and Byzantine replica 0 hides the b2 QC.

   The insecure protocol proposes a conflicting extension of b1; replica 2
   refuses (it is locked, and nothing can unlock it), the quorum cannot
   complete, and no operation commits in the view: a livelock, though
   never a safety violation. Marlin's pre-prepare phase recovers from the
   same schedule (Figure 2c, in test_marlin's Case V1 + R2). *)

open Marlin_types
module P = Marlin_core.Twophase_insecure
module H = Test_support.Harness.Make (P)
module Qc = Marlin_types.Qc

let test_insecure_livelock () =
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
  Alcotest.(check int) "still stuck" 1 (H.max_committed t);
  Alcotest.(check bool) "yet safety was never violated" true (H.check_safety t)

(* The partial-synchrony story against the real simulator, with the
   cluster's own view timers (test_faults' catalogue case runs the same
   scenarios with timers scaled to the cluster size). While the network is
   partitioned or pre-GST lossy no progress is required, but once the
   fault heals commits must resume, and agreement holds throughout. *)
let check_resumes (sc : Marlin_faults.Scenario.t) ~after () =
  let open Marlin_runtime in
  List.iter
    (fun name ->
      let params = Cluster.params_for_f sc.Marlin_faults.Scenario.f in
      let r = Experiment.run (Registry.find_exn name) ~params (Experiment.Scenario sc) in
      Alcotest.(check bool) (name ^ ": commits resume after " ^ after) true r.Experiment.recovered;
      Alcotest.(check bool) (name ^ ": agreement") true r.Experiment.agreement)
    [ "marlin"; "hotstuff" ]

let () =
  Alcotest.run "liveness"
    [
      ( "liveness",
        [
          ("two-phase insecure: Figure 2b livelock", `Quick, test_insecure_livelock);
          ( "liveness resumes after heal (partition)",
            `Quick,
            check_resumes Marlin_faults.Catalogue.partition_heal ~after:"heal" );
          ( "liveness resumes after GST (pre-GST churn)",
            `Quick,
            check_resumes Marlin_faults.Catalogue.pre_gst_churn ~after:"GST" );
        ] );
    ]
