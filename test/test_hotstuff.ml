(* HotStuff's lock (the baseline's safety rule): a block locked by a
   precommitQC survives a view change and commits in the new view. The
   cases every protocol shares are in test_protocols. *)

open Marlin_types
module P = Marlin_runtime.Registry.Hotstuff
module H = Test_support.Harness.Make (P)
module Qc = Marlin_types.Qc

let check_safety t = Alcotest.(check bool) "safety invariant" true (H.check_safety t)

(* The lock protects a block that may have committed: a replica locked on
   a precommitQC refuses a conflicting lower proposal. *)
let test_lock_refuses_conflict () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  (* b2 runs through prepare and precommit, but commit votes are cut so
     nothing decides; replicas are locked on b2. *)
  H.set_filter t (fun ~src:_ ~dst:_ m ->
      match m.Message.payload with
      | Message.Vote { kind = Qc.Commit; block; _ } -> block.Qc.height < 2
      | _ -> true);
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"b2");
  H.clear_filter t;
  let locked = P.locked_qc (H.proto t 1) in
  Alcotest.(check int) "locked at height 2" 2 locked.Qc.block.Qc.height;
  (* A view change now extends the highest prepareQC — which is for b2 —
     so b2 survives and commits in the new view. *)
  H.crash t 0;
  H.submit t (Operation.make ~client:1 ~seq:3 ~body:"b3");
  H.timeout_all t;
  check_safety t;
  Alcotest.(check bool) "locked block eventually commits" true
    (List.exists (fun o -> o.Operation.body = "b2") (H.committed_ops t 1));
  Alcotest.(check bool) "new op too" true
    (List.exists (fun o -> o.Operation.body = "b3") (H.committed_ops t 1))

let () =
  Alcotest.run "hotstuff"
    [ ("hotstuff", [ ("lock survives view change", `Quick, test_lock_refuses_conflict) ]) ]
