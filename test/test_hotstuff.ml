(* Protocol-level tests for the HotStuff baseline: normal case (three
   voting phases), NEW-VIEW based view changes, locking, and catch-up. *)

open Marlin_types
module P = Marlin_runtime.Registry.Hotstuff
module H = Test_support.Harness.Make (P)
module Qc = Marlin_types.Qc

let check_safety t = Alcotest.(check bool) "safety invariant" true (H.check_safety t)

let test_normal_commit () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"hello");
  check_safety t;
  Alcotest.(check int) "all replicas committed" 1 (H.min_committed t);
  Alcotest.(check string) "op intact" "hello"
    (List.hd (H.committed_ops t 3)).Operation.body

let test_three_phase_traffic () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"x");
  let count ty =
    List.length (List.filter (fun (_, _, m) -> Message.type_name m = ty) t.H.trace)
  in
  (* One block, 3 remote replicas: 3 proposals, then 3 votes and 3 cert
     broadcasts per phase, for three phases. *)
  Alcotest.(check int) "proposals" 3 (count "PROPOSE");
  Alcotest.(check int) "prepare votes" 3 (count "VOTE-PREPARE");
  Alcotest.(check int) "precommit votes" 3 (count "VOTE-PRECOMMIT");
  Alcotest.(check int) "commit votes" 3 (count "VOTE-COMMIT");
  Alcotest.(check int) "three cert broadcasts" 9
    (count "CERT-PREPARE" + count "CERT-PRECOMMIT" + count "CERT-COMMIT")

let test_multiple_blocks () =
  let t = H.create () in
  H.start t;
  H.submit_ops t ~client:1 ~count:50;
  check_safety t;
  Alcotest.(check int) "still view 0" 0 (P.current_view (H.proto t 1));
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d has all 50" id)
        50
        (List.length (H.committed_ops t id)))
    [ 0; 1; 2; 3 ]

let test_view_change () =
  let t = H.create () in
  H.start t;
  H.submit_ops t ~client:1 ~count:3;
  let before = H.min_committed t in
  H.crash t 0;
  H.submit t (Operation.make ~client:2 ~seq:1 ~body:"after-crash");
  H.timeout_all t;
  check_safety t;
  Alcotest.(check int) "view advanced" 1 (P.current_view (H.proto t 1));
  Alcotest.(check bool) "progress resumed" true (H.min_committed t > before);
  Alcotest.(check bool) "new op committed everywhere" true
    (List.for_all
       (fun id ->
         List.exists (fun o -> o.Operation.body = "after-crash") (H.committed_ops t id))
       [ 1; 2; 3 ]);
  (* HotStuff view change: NEW-VIEW messages to the new leader, no Marlin
     VIEW-CHANGE / PRE-PREPARE traffic. *)
  let count ty =
    List.length (List.filter (fun (_, _, m) -> Message.type_name m = ty) t.H.trace)
  in
  Alcotest.(check bool) "NEW-VIEW sent" true (count "NEW-VIEW" >= 2);
  Alcotest.(check int) "no Marlin view-change messages" 0 (count "VIEW-CHANGE");
  Alcotest.(check int) "no pre-prepare phase" 0 (count "PRE-PREPARE")

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

let test_cascading_view_changes () =
  let t = H.create ~n:7 ~f:2 () in
  H.start t;
  H.submit_ops t ~client:1 ~count:3;
  H.crash t 0;
  H.submit t (Operation.make ~client:2 ~seq:1 ~body:"x1");
  H.timeout_all t;
  H.crash t 1;
  H.submit t (Operation.make ~client:2 ~seq:2 ~body:"x2");
  H.timeout_all t;
  check_safety t;
  Alcotest.(check int) "view 2" 2 (P.current_view (H.proto t 2));
  Alcotest.(check bool) "x2 committed" true
    (List.exists (fun o -> o.Operation.body = "x2") (H.committed_ops t 4))

let test_fast_forward () =
  let t = H.create ~n:7 ~f:2 () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  H.crash t 0;
  H.set_filter t (fun ~src ~dst _ -> src <> 6 && dst <> 6);
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"during-partition");
  List.iter (fun id -> H.timeout t id) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "replica 6 behind" 0 (P.current_view (H.proto t 6));
  H.clear_filter t;
  H.submit t (Operation.make ~client:1 ~seq:3 ~body:"after-heal");
  check_safety t;
  Alcotest.(check int) "replica 6 caught up" 1 (P.current_view (H.proto t 6));
  Alcotest.(check int) "replica 6 executed everything" 3
    (List.length (H.committed_ops t 6))

(* Idle timeouts rotate views (NEW-VIEW to the next leader) with backoff,
   and the cluster keeps committing afterwards. *)
let test_idle_rotation () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"only");
  H.timeout_all t;
  H.timeout_all t;
  Alcotest.(check int) "two idle rotations" 2 (P.current_view (H.proto t 2));
  Alcotest.(check bool) "backoff doubled the timer" true
    ((H.node t 2).H.last_timer > 1.5);
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"after-idle");
  check_safety t;
  Alcotest.(check int) "cluster still commits" 2
    (List.length (H.committed_ops t 3))

let test_chains_identical () =
  let t = H.create () in
  H.start t;
  H.submit_ops t ~client:7 ~count:20;
  let reference = H.committed_ops t 0 in
  List.iter
    (fun id ->
      let ops = H.committed_ops t id in
      Alcotest.(check int) "same length" (List.length reference) (List.length ops);
      List.iter2
        (fun a b -> Alcotest.(check bool) "same order" true (Operation.equal a b))
        reference ops)
    [ 1; 2; 3 ]

let suite =
  [
    ("normal case commit", `Quick, test_normal_commit);
    ("three-phase message pattern", `Quick, test_three_phase_traffic);
    ("multiple blocks in one view", `Quick, test_multiple_blocks);
    ("view change via NEW-VIEW", `Quick, test_view_change);
    ("lock survives view change", `Quick, test_lock_refuses_conflict);
    ("cascading view changes", `Quick, test_cascading_view_changes);
    ("fast-forward catch-up", `Quick, test_fast_forward);
    ("idle rotation with backoff", `Quick, test_idle_rotation);
    ("chains identical", `Quick, test_chains_identical);
  ]

let () = Alcotest.run "hotstuff" [ ("hotstuff", suite) ]
