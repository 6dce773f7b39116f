(* The chained (pipelined) variants, the mode the paper's evaluation
   runs: the two-chain (Marlin) against the three-chain (HotStuff) commit
   rule, and Marlin's unhappy view change with a lock hidden from the new
   leader. The cases every protocol shares, chained ones included, are in
   test_protocols. *)

open Marlin_types
module CM = Marlin_runtime.Registry.Chained_marlin
module HM = Test_support.Harness.Make (CM)

let stored_after_one_op (module P : Marlin_core.Consensus_intf.PROTOCOL) =
  let module H = Test_support.Harness.Make (P) in
  let t = H.create () in
  H.start t;
  H.submit t (Operation.make ~client:1 ~seq:1 ~body:"x");
  Block_store.size (P.block_store (H.proto t 1))

(* The structural difference the paper measures: with the tail flushed,
   chained Marlin needs a two-chain and chained HotStuff a three-chain, so
   a lone operation leaves genesis, its block and one flush block in
   Marlin's store, and two flush blocks in HotStuff's. *)
let test_chain_depths () =
  Alcotest.(check (pair int int))
    "blocks stored (marlin, hotstuff)" (3, 4)
    ( stored_after_one_op (module CM),
      stored_after_one_op (module Marlin_runtime.Registry.Chained_hotstuff) )

(* Marlin's unhappy view change (hidden lock, V1, virtual block) also
   works in chained mode. *)
let test_marlin_chained_unhappy_vc () =
  let t = HM.create () in
  let kc = HM.keychain t in
  HM.start t;
  HM.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  Alcotest.(check bool) "b1 committed" true (HM.min_committed t >= 1);
  (* The block carrying op "b2" is broadcast normally; everything the
     leader sends above it (pipelined proposals and certificates, which
     carry b2's QC) reaches only replica 2 — so r2 alone locks on it.
     Heights shift with flush blocks, so the cutoff is found dynamically. *)
  let b2_height = ref max_int in
  HM.set_filter t (fun ~src ~dst m ->
      match m.Message.payload with
      | Message.Propose { block; _ } when src = 0 ->
          if
            List.exists
              (fun o -> o.Operation.body = "b2")
              (Batch.to_list block.Block.payload)
          then b2_height := block.Block.height;
          if block.Block.height > !b2_height then dst = 2 else true
      | Message.Phase_cert qc
        when src = 0
             && Qc.phase_equal qc.Qc.phase Qc.Prepare
             && qc.Qc.block.Qc.height >= !b2_height ->
          dst = 2
      | _ -> true);
  HM.submit t (Operation.make ~client:1 ~seq:2 ~body:"b2");
  let locked2 = CM.locked_qc (HM.proto t 2) in
  Alcotest.(check bool) "r2 locked above the others" true
    (locked2.Qc.block.Qc.height >= 2);
  let qc_low =
    match CM.high_qc (HM.proto t 1) with
    | High_qc.Single qc -> qc
    | High_qc.Paired _ -> Alcotest.fail "unexpected paired high"
  in
  Alcotest.(check bool) "r1 is behind r2" true
    (qc_low.Qc.block.Qc.height < locked2.Qc.block.Qc.height);
  let low_summary =
    let store = CM.block_store (HM.proto t 1) in
    match Block_store.find store qc_low.Qc.block.Qc.digest with
    | Some b -> Block.summary b
    | None -> Alcotest.fail "low block missing"
  in
  HM.set_transform t (fun ~src ~dst m ->
      match m.Message.payload with
      | Message.View_change _ when src = 2 && dst = 1 -> None
      | Message.View_change _ when src = 0 && dst = 1 ->
          let parsig =
            Qc.sign_vote kc ~signer:0 ~phase:Qc.Prepare ~view:m.Message.view
              low_summary.Block.b_ref
          in
          Some
            (Message.make ~sender:0 ~view:m.Message.view
               (Message.View_change
                  { last = low_summary; justify = High_qc.Single qc_low; parsig }))
      | Message.Vote _ when src = 0 -> None
      | _ -> Some m);
  HM.timeout_all t;
  HM.clear_filter t;
  Alcotest.(check bool) "safety" true (HM.check_safety t);
  (* Progress must resume and b2 must survive on every correct replica. *)
  HM.submit t (Operation.make ~client:9 ~seq:1 ~body:"post-vc");
  List.iter
    (fun id ->
      let ops = HM.committed_ops t id in
      Alcotest.(check bool)
        (Printf.sprintf "replica %d has b2" id)
        true
        (List.exists (fun o -> o.Operation.body = "b2") ops);
      Alcotest.(check bool)
        (Printf.sprintf "replica %d has post-vc" id)
        true
        (List.exists (fun o -> o.Operation.body = "post-vc") ops))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "chained"
    [
      ( "chained",
        [
          ("chained: two-chain vs three-chain depth", `Quick, test_chain_depths);
          ("chained marlin: unhappy VC with hidden lock", `Quick, test_marlin_chained_unhappy_vc);
        ] 
      );
    ]
