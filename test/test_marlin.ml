(* Protocol-level tests for Marlin (basic, Section V of the paper): normal
   case, happy-path view changes, and the unhappy view-change cases V1/V2
   with replica rules R1/R2 — including the Figure 2c schedule with a
   QC-hiding Byzantine replica and a virtual-block commit. *)

open Marlin_types
module P = Marlin_runtime.Registry.Marlin
module H = Test_support.Harness.Make (P)
module Qc = Marlin_types.Qc

let check_safety t = Alcotest.(check bool) "safety invariant" true (H.check_safety t)

(* ---------- normal case ---------- *)

let test_initial_state () =
  let t = H.create () in
  H.start t;
  for id = 0 to 3 do
    let p = H.proto t id in
    Alcotest.(check int) "view 0" 0 (P.current_view p);
    Alcotest.(check bool) "genesis locked" true (Qc.is_genesis (P.locked_qc p));
    Alcotest.(check int) "nothing committed" 0 (P.committed_count p)
  done;
  Alcotest.(check bool) "replica 0 leads view 0" true (P.is_leader (H.proto t 0))

let test_normal_commit () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"hello");
  check_safety t;
  Alcotest.(check int) "all four replicas committed one block" 1 (H.min_committed t);
  let ops = H.committed_ops t 2 in
  Alcotest.(check int) "the operation is in the chain" 1 (List.length ops);
  Alcotest.(check string) "body intact" "hello" (List.hd ops).Operation.body

let test_multiple_blocks_one_view () =
  let t = H.create () in
  H.start t;
  H.submit_ops t ~client:1 ~count:50;
  check_safety t;
  (* 50 ops at batch_max=16 need at least 4 blocks; all in view 0. *)
  Alcotest.(check bool) "several blocks committed" true (H.min_committed t >= 4);
  for id = 0 to 3 do
    Alcotest.(check int) "still view 0" 0 (P.current_view (H.proto t id));
    Alcotest.(check int) "all 50 ops committed" 50
      (List.length (H.committed_ops t id))
  done

let test_chains_identical () =
  let t = H.create () in
  H.start t;
  H.submit_ops t ~client:7 ~count:20;
  let reference = H.committed_ops t 0 in
  for id = 1 to 3 do
    let ops = H.committed_ops t id in
    Alcotest.(check int) "same length" (List.length reference) (List.length ops);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "same op order" true (Operation.equal a b))
      reference ops
  done

(* Marlin must never emit HotStuff's PRECOMMIT phase: exactly two voting
   rounds per block. *)
let test_two_phase_traffic () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"x");
  let types =
    List.map (fun (_, _, m) -> Message.type_name m) t.H.trace
    |> List.sort_uniq String.compare
  in
  Alcotest.(check bool) "no precommit votes" false
    (List.mem "VOTE-PRECOMMIT" types);
  Alcotest.(check bool) "no precommit certs" false
    (List.mem "CERT-PRECOMMIT" types);
  let count ty = List.length (List.filter (fun (_, _, m) -> Message.type_name m = ty) t.H.trace) in
  (* One block: 3 proposals out, 3 prepare votes in, 3 prepare certs out,
     3 commit votes in, 3 commit certs out. *)
  Alcotest.(check int) "proposals" 3 (count "PROPOSE");
  Alcotest.(check int) "prepare votes" 3 (count "VOTE-PREPARE");
  Alcotest.(check int) "commit votes" 3 (count "VOTE-COMMIT");
  Alcotest.(check int) "certs (prepare + commit)" 6
    (count "CERT-PREPARE" + count "CERT-COMMIT")

(* A client may resubmit an operation it has not heard back about. Once
   committed, the operation is a mempool duplicate: no replica proposes it
   again, so no second block commits. *)
let test_resubmitted_op_not_reproposed () =
  let t = H.create () in
  H.start t;
  let op = Operation.make ~client:1 ~seq:1 ~body:"once" in
  H.submit t op;
  let proposals () =
    List.length (List.filter (fun (_, _, m) -> Message.type_name m = "PROPOSE") t.H.trace)
  in
  Alcotest.(check int) "one block proposed" 3 (proposals ());
  H.submit t op;
  Alcotest.(check int) "no second proposal" 3 (proposals ());
  Alcotest.(check int) "still one block committed" 1 (H.max_committed t);
  Alcotest.(check int) "executed once" 1 (List.length (H.committed_ops t 0))

(* ---------- view changes ---------- *)

(* Crash the leader before it proposes anything: every replica still has
   lb = genesis, so the view change takes the happy path (two phases, no
   PRE-PREPARE traffic). *)
let test_happy_path_view_change () =
  let t = H.create () in
  H.start t;
  H.crash t 0;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"before-vc");
  Alcotest.(check int) "nothing committed under a dead leader" 0 (H.max_committed t);
  H.timeout_all t;
  check_safety t;
  Alcotest.(check int) "new view is 1" 1 (P.current_view (H.proto t 1));
  Alcotest.(check bool) "replica 1 leads" true (P.is_leader (H.proto t 1));
  Alcotest.(check bool) "op committed after view change" true (H.min_committed t >= 1);
  let pre_prepares =
    List.filter (fun (_, _, m) -> Message.type_name m = "PRE-PREPARE") t.H.trace
  in
  Alcotest.(check int) "happy path: no PRE-PREPARE phase" 0 (List.length pre_prepares)

(* Crash the leader mid-stream after full commits: all replicas agree on
   lb, so again the happy path applies, and the chain continues on top. *)
let test_happy_path_after_commits () =
  let t = H.create () in
  H.start t;
  H.submit_ops t ~client:1 ~count:5;
  let committed_before = H.min_committed t in
  Alcotest.(check bool) "some commits before crash" true (committed_before >= 1);
  H.crash t 0;
  H.submit t (Operation.make ~client:2 ~seq:1 ~body:"after-crash");
  H.timeout_all t;
  check_safety t;
  Alcotest.(check bool) "chain extended after view change" true
    (H.min_committed t > committed_before);
  let ops = H.committed_ops t 1 in
  Alcotest.(check bool) "new op present" true
    (List.exists (fun o -> o.Operation.body = "after-crash") ops)

(* Case V2 (unhappy, safe snapshot): replica 2 is locked on a QC the other
   correct replicas lack, but its VIEW-CHANGE message reveals that QC, so
   the new leader can propose a plain extension — one proposal, no virtual
   block, three-phase view change. Replica 1 never saw the block body and
   must fetch it to commit. *)
let test_unhappy_v2_view_change () =
  let t = H.create () in
  H.start t;
  (* Block 1 commits normally. *)
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  Alcotest.(check int) "b1 committed" 1 (H.min_committed t);
  (* Block 2: proposal reaches only replicas 2 and 3; the prepare
     certificate reaches only replica 2. *)
  H.set_filter t (fun ~src ~dst m ->
      match m.Message.payload with
      | Message.Propose _ when src = 0 -> dst = 2 || dst = 3
      | Message.Phase_cert qc
        when src = 0 && Qc.phase_equal qc.Qc.phase Qc.Prepare && qc.Qc.block.Qc.height = 2 ->
          dst = 2
      | _ -> true);
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"b2");
  Alcotest.(check int) "b2 not committed anywhere" 1 (H.max_committed t);
  (* Now: r2 locked on qc(b2); r3 voted b2 but is locked on qc(b1);
     r1 never saw b2. Kill the leader and change views. *)
  H.clear_filter t;
  H.crash t 0;
  H.timeout_all t;
  check_safety t;
  (* The view change must recover b2 and commit it (plus a new block for
     the pending op, if any). *)
  Alcotest.(check bool) "b2 recovered and committed by all" true
    (H.min_committed t >= 2);
  let ops = H.committed_ops t 1 in
  Alcotest.(check bool) "replica 1 fetched and executed b2" true
    (List.exists (fun o -> o.Operation.body = "b2") ops);
  (* It was an unhappy view change: the PRE-PREPARE phase ran, with a
     single (non-shadow) proposal. *)
  let pre_prepares =
    List.filter_map
      (fun (_, _, m) ->
        match m.Message.payload with
        | Message.Pre_prepare { proposals } -> Some (List.length proposals)
        | _ -> None)
      t.H.trace
  in
  Alcotest.(check bool) "PRE-PREPARE ran" true (List.length pre_prepares > 0);
  List.iter (fun k -> Alcotest.(check int) "single proposal (V2)" 1 k) pre_prepares

(* Case V1 + R2 (Figure 2c): the highest prepareQC is hidden from the new
   leader's snapshot, so it proposes a normal block AND a virtual shadow
   block. The replica locked on the hidden QC votes only for the virtual
   block (rule R2) and attaches its lockedQC; the pre-prepareQC forms for
   the virtual block, which commits with the locked block as its parent. *)
let test_unhappy_v1_virtual_block () =
  let t = H.create () in
  H.start t;
  (* b1 commits. Block 2 (height 2): everyone votes, but the prepare
     certificate reaches only replica 2 — it alone locks qc(b2). *)
  H.hide_lock t ~locked:(Some 2);
  Alcotest.(check int) "b1 committed" 1 (H.min_committed t);
  Alcotest.(check int) "b2 not committed" 1 (H.max_committed t);
  let locked2 = P.locked_qc (H.proto t 2) in
  Alcotest.(check int) "r2 locked at height 2" 2 locked2.Qc.block.Qc.height;
  (* View change to leader 1. Replica 0 (the old leader, now Byzantine)
     "hides" qc(b2): its VIEW-CHANGE is replaced with one advertising only
     qc(b1). Replica 2's VIEW-CHANGE is dropped, so the leader's snapshot
     is {0 (forged), 1, 3} — unsafe: it does not contain qc(b2). *)
  let qc_b1 = H.unsafe_snapshot t in
  Alcotest.(check int) "r1 high at height 1" 1 qc_b1.Qc.block.Qc.height;
  H.timeout_all t;
  H.clear_filter t;
  check_safety t;
  (* The leader should have proposed two shadow blocks (normal + virtual),
     and the virtual one should have won and committed b2 underneath it. *)
  let shadow_pairs =
    List.filter_map
      (fun (_, _, m) ->
        match m.Message.payload with
        | Message.Pre_prepare { proposals } -> Some proposals
        | _ -> None)
      t.H.trace
  in
  Alcotest.(check bool) "PRE-PREPARE ran" true (List.length shadow_pairs > 0);
  Alcotest.(check int) "two shadow proposals (V1)" 2
    (List.length (List.hd shadow_pairs));
  Alcotest.(check bool) "one of them is virtual" true
    (List.exists Block.is_virtual (List.hd shadow_pairs));
  (* An R2 vote carrying the hidden lockedQC must have been sent by r2. *)
  let r2_votes =
    List.filter
      (fun (src, _, m) ->
        src = 2
        &&
        match m.Message.payload with
        | Message.Vote { kind = Qc.Pre_prepare; locked = Some _; _ } -> true
        | _ -> false)
      t.H.trace
  in
  Alcotest.(check bool) "r2 sent an R2 vote with its lockedQC" true
    (List.length r2_votes > 0);
  (* b2 (the hidden block) must be committed at every correct replica. *)
  List.iter
    (fun id ->
      let ops = H.committed_ops t id in
      Alcotest.(check bool)
        (Printf.sprintf "replica %d committed b2" id)
        true
        (List.exists (fun o -> o.Operation.body = "b2") ops))
    [ 1; 2; 3 ];
  (* And the chain tip above b2 is the virtual block. *)
  let store = P.block_store (H.proto t 2) in
  let head = P.committed_head (H.proto t 2) in
  let on_branch =
    let rec any b =
      Block.is_virtual b
      || match Block_store.parent store b with Some p -> any p | None -> false
    in
    any head
  in
  Alcotest.(check bool) "a virtual block is on the committed branch" true on_branch

(* Liveness continues after the V1 view change: the next leader keeps
   committing client operations on top of the virtual block. *)
let test_progress_after_virtual_commit () =
  let t = H.create () in
  H.start t;
  H.hide_lock t ~locked:(Some 2);
  ignore (H.unsafe_snapshot t);
  H.timeout_all t;
  H.clear_filter t;
  let before = H.min_committed t in
  H.submit_ops t ~client:9 ~count:10;
  check_safety t;
  Alcotest.(check bool) "commits continue after the virtual block" true
    (H.min_committed t > before);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d has all ops" id)
        12
        (List.length (H.committed_ops t id)))
    [ 1; 2; 3 ]

(* Successive view changes: two leaders crash back to back (n = 7 so the
   fault budget allows it). *)
let test_cascading_view_changes () =
  let t = H.create ~n:7 ~f:2 () in
  H.start t;
  H.submit_ops t ~client:1 ~count:3;
  H.crash t 0;
  H.submit t (Operation.make ~client:2 ~seq:1 ~body:"x1");
  H.timeout_all t;
  Alcotest.(check int) "view 1" 1 (P.current_view (H.proto t 1));
  Alcotest.(check bool) "x1 committed in view 1" true
    (List.exists (fun o -> o.Operation.body = "x1") (H.committed_ops t 3));
  H.crash t 1;
  H.submit t (Operation.make ~client:2 ~seq:2 ~body:"x2");
  H.timeout_all t;
  check_safety t;
  Alcotest.(check int) "view 2" 2 (P.current_view (H.proto t 2));
  Alcotest.(check bool) "replica 2 leads and commits" true
    (List.exists (fun o -> o.Operation.body = "x2") (H.committed_ops t 2));
  Alcotest.(check bool) "replica 3 agrees" true
    (List.exists (fun o -> o.Operation.body = "x2") (H.committed_ops t 3))

(* A replica partitioned through a view change catches up from the QC
   embedded in the next proposal (fast-forward), then fetches the block
   bodies it missed. *)
let test_fast_forward () =
  let t = H.create ~n:7 ~f:2 () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  Alcotest.(check int) "b1 committed" 1 (H.min_committed t);
  (* Crash the leader and cut replica 6 off entirely. *)
  H.crash t 0;
  H.set_filter t (fun ~src ~dst _ -> src <> 6 && dst <> 6);
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"during-partition");
  List.iter (fun id -> H.timeout t id) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "view 1 committed without replica 6" true
    (List.exists
       (fun o -> o.Operation.body = "during-partition")
       (H.committed_ops t 2));
  Alcotest.(check int) "replica 6 still in view 0" 0
    (P.current_view (H.proto t 6));
  (* Heal; the next proposal carries a view-1 prepareQC, which is proof a
     quorum moved on — replica 6 fast-forwards and backfills. *)
  H.clear_filter t;
  H.submit t (Operation.make ~client:1 ~seq:3 ~body:"after-heal");
  check_safety t;
  Alcotest.(check int) "replica 6 fast-forwarded to view 1" 1
    (P.current_view (H.proto t 6));
  Alcotest.(check bool) "replica 6 caught up on the missed block" true
    (List.exists
       (fun o -> o.Operation.body = "during-partition")
       (H.committed_ops t 6));
  Alcotest.(check bool) "replica 6 has the new block too" true
    (List.exists (fun o -> o.Operation.body = "after-heal") (H.committed_ops t 6))

(* Ops submitted during a leader outage all survive into the new view. *)
let test_no_ops_lost_across_view_change () =
  let t = H.create () in
  H.start t;
  H.crash t 0;
  H.submit_ops t ~client:4 ~count:8;
  H.timeout_all t;
  check_safety t;
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d executed all 8" id)
        8
        (List.length (H.committed_ops t id)))
    [ 1; 2; 3 ]

(* Idle timeouts rotate views via the cheap happy path (all replicas agree
   on the last voted block) with exponential backoff, and the cluster keeps
   working afterwards. *)
let test_idle_rotation_is_happy () =
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"only");
  let pre_prepares_before =
    List.length
      (List.filter (fun (_, _, m) -> Message.type_name m = "PRE-PREPARE") t.H.trace)
  in
  H.timeout_all t;
  H.timeout_all t;
  Alcotest.(check int) "two idle rotations" 2 (P.current_view (H.proto t 2));
  let pre_prepares_after =
    List.length
      (List.filter (fun (_, _, m) -> Message.type_name m = "PRE-PREPARE") t.H.trace)
  in
  Alcotest.(check int) "idle rotations take the happy path" pre_prepares_before
    pre_prepares_after;
  Alcotest.(check bool) "backoff doubled the timer" true
    ((H.node t 2).H.last_timer > 1.5);
  H.submit t (Operation.make ~client:1 ~seq:2 ~body:"after-idle");
  check_safety t;
  Alcotest.(check int) "cluster still commits" 2
    (List.length (H.committed_ops t 3))

let suite =
  [
    ("initial state", `Quick, test_initial_state);
    ("normal case commit", `Quick, test_normal_commit);
    ("multiple blocks in one view", `Quick, test_multiple_blocks_one_view);
    ("chains identical across replicas", `Quick, test_chains_identical);
    ("two-phase message pattern", `Quick, test_two_phase_traffic);
    ( "a committed operation resubmitted is not re-proposed",
      `Quick,
      test_resubmitted_op_not_reproposed );
    ("happy-path view change", `Quick, test_happy_path_view_change);
    ("happy path after commits", `Quick, test_happy_path_after_commits);
    ("unhappy view change: Case V2 + fetch", `Quick, test_unhappy_v2_view_change);
    ("unhappy view change: Case V1 + R2 + virtual block", `Quick, test_unhappy_v1_virtual_block);
    ("progress after virtual commit", `Quick, test_progress_after_virtual_commit);
    ("cascading view changes", `Quick, test_cascading_view_changes);
    ("fast-forward catch-up", `Quick, test_fast_forward);
    ("no ops lost across view change", `Quick, test_no_ops_lost_across_view_change);
    ("idle rotation stays happy & backs off", `Quick, test_idle_rotation_is_happy);
  ]

let () = Alcotest.run "marlin" [ ("marlin", suite) ]
