(* Marlin's unhappy view changes (basic protocol, Section V): Case V2
   with a block fetch, and Case V1 with rule R2 and a virtual-block commit
   under the Figure 2c schedule (a QC-hiding Byzantine replica). The cases
   every protocol shares are in test_protocols; Case V3 is in
   test_marlin_v3. *)

open Marlin_types
module P = Marlin_runtime.Registry.Marlin
module H = Test_support.Harness.Make (P)
module Qc = Marlin_types.Qc

let check_safety t = Alcotest.(check bool) "safety invariant" true (H.check_safety t)

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
  (* Same unsafe snapshot, same Byzantine hider as Figure 2b — but every
     replica, the hider included, commits past b1. *)
  Alcotest.(check bool) "Marlin commits despite the unsafe snapshot" true
    (H.min_committed t >= 2);
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

let suite =
  [
    ("unhappy view change: Case V2 + fetch", `Quick, test_unhappy_v2_view_change);
    ("unhappy view change: Case V1 + R2 + virtual block", `Quick, test_unhappy_v1_virtual_block);
    ("progress after virtual commit", `Quick, test_progress_after_virtual_commit);
  ]

let () = Alcotest.run "marlin" [ ("marlin", suite) ]
