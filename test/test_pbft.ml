(* The PBFT baseline's view change (the paper's Section II counterpoint):
   a prepared block survives it, broadcast VIEW-CHANGE messages pull
   lagging replicas into the new view, and the new leader re-commits
   once. The cases every protocol shares are in test_protocols. *)

open Marlin_types
module P = Marlin_core.Pbft
module H = Test_support.Harness.Make (P)
module Qc = Marlin_types.Qc

let check_safety t = Alcotest.(check bool) "safety invariant" true (H.check_safety t)

(* A prepared-but-uncommitted block survives the view change: the new
   leader must adopt the highest prepared certificate from the quorum. *)
let test_prepared_block_survives () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  (* cut all COMMIT votes for height 2: the block prepares everywhere but
     commits nowhere *)
  H.set_filter t (fun ~src:_ ~dst:_ m ->
      match m.Message.payload with
      | Message.Vote { kind = Qc.Commit; block; _ } -> block.Qc.height < 2
      | _ -> true);
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"b2");
  H.clear_filter t;
  Alcotest.(check int) "b2 prepared at height 2" 2
    (P.locked_qc (H.proto t 1)).Qc.block.Qc.height;
  Alcotest.(check int) "but not committed" 1 (H.max_committed t);
  H.crash t 0;
  H.timeout_all t;
  check_safety t;
  Alcotest.(check bool) "b2 committed after the view change" true
    (List.exists (fun o -> o.Operation.body = "b2") (H.committed_ops t 1))

let test_view_sync_on_broadcast_vcs () =
  (* view-change messages are broadcast, so replicas behind can count f+1
     of them and join without waiting for their own timer *)
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  H.crash t 0;
  H.timeout t 1;
  H.timeout t 2;
  (* replica 3 never timed out itself, but the two broadcast VCs pull it in *)
  Alcotest.(check int) "replica 3 joined view 1" 1 (P.current_view (H.proto t 3));
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"b2");
  check_safety t;
  Alcotest.(check bool) "progress in the new view" true
    (List.exists (fun o -> o.Operation.body = "b2") (H.committed_ops t 3))

(* The new leader applies its NEW-VIEW-PROOF when it forms it, so the
   copy it delivers to itself must not repeat the re-commit: every replica
   sends one COMMIT vote for the re-committed block to each other one. *)
let test_new_leader_recommits_once () =
  let t = H.create () in
  H.start t;
  H.submit_ops t ~client:1 ~count:3;
  H.crash t 0;
  H.submit t (Operation.make ~client:2 ~seq:1 ~body:"after-crash");
  H.timeout_all t;
  let justify =
    match
      List.filter_map
        (fun (_, _, m) ->
          match m.Message.payload with
          | Message.New_view_proof { justify; _ } -> Some justify
          | _ -> None)
        t.H.trace
    with
    | qc :: _ -> qc
    | [] -> Alcotest.fail "no NEW-VIEW-PROOF sent"
  in
  Alcotest.(check bool) "re-commits a real block" false (Qc.is_genesis justify);
  let recommit_votes ~src ~dst =
    List.length
      (List.filter
         (fun (s, d, m) ->
           s = src && d = dst && m.Message.view = 1
           &&
           match m.Message.payload with
           | Message.Vote { kind = Qc.Commit; block; _ } ->
               Qc.block_ref_equal block justify.Qc.block
           | _ -> false)
         t.H.trace)
  in
  List.iter
    (fun (src, dst) ->
      Alcotest.(check int)
        (Printf.sprintf "re-commit votes %d -> %d" src dst)
        1 (recommit_votes ~src ~dst))
    [ (1, 2); (1, 3); (2, 1); (2, 3); (3, 1); (3, 2) ]

let suite =
  [
    ("prepared block survives view change", `Quick, test_prepared_block_survives);
    ("broadcast VCs synchronize views", `Quick, test_view_sync_on_broadcast_vcs);
    ("new leader sends one re-commit vote per follower", `Quick,
     test_new_leader_recommits_once);
  ]

let () = Alcotest.run "pbft" [ ("pbft", suite) ]
