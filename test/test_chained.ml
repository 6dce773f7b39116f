(* Tests for the chained (pipelined) variants — the mode the paper's
   evaluation runs. Checks pipelining, the two-chain (Marlin) and
   three-chain (HotStuff) commit rules, tail flushing, and view changes. *)

open Marlin_types
module CM = Marlin_runtime.Registry.Chained_marlin
module CH = Marlin_runtime.Registry.Chained_hotstuff
module HM = Test_support.Harness.Make (CM)
module HH = Test_support.Harness.Make (CH)

let test_marlin_commit () =
  let t = HM.create () in
  HM.start t;
  HM.submit t (Operation.make ~client:1 ~seq:1 ~body:"solo");
  Alcotest.(check bool) "safety" true (HM.check_safety t);
  (* Tail flushing must let even a single operation commit. *)
  Alcotest.(check bool) "committed everywhere" true (HM.min_committed t >= 1);
  Alcotest.(check string) "op intact" "solo"
    (List.hd (HM.committed_ops t 2)).Operation.body

let test_hotstuff_commit () =
  let t = HH.create () in
  HH.start t;
  HH.submit t (Operation.make ~client:1 ~seq:1 ~body:"solo");
  Alcotest.(check bool) "safety" true (HH.check_safety t);
  Alcotest.(check bool) "committed everywhere" true (HH.min_committed t >= 1);
  Alcotest.(check string) "op intact" "solo"
    (List.hd (HH.committed_ops t 2)).Operation.body

let test_marlin_stream () =
  let t = HM.create () in
  HM.start t;
  HM.submit_ops t ~client:1 ~count:60;
  Alcotest.(check bool) "safety" true (HM.check_safety t);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d executed all" id)
        60
        (List.length (HM.committed_ops t id)))
    [ 0; 1; 2; 3 ];
  Alcotest.(check int) "no view change needed" 0 (CM.current_view (HM.proto t 1))

let test_hotstuff_stream () =
  let t = HH.create () in
  HH.start t;
  HH.submit_ops t ~client:1 ~count:60;
  Alcotest.(check bool) "safety" true (HH.check_safety t);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d executed all" id)
        60
        (List.length (HH.committed_ops t id)))
    [ 0; 1; 2; 3 ]

(* Chained mode has exactly one voting round per block: no precommit or
   commit votes on the wire for either protocol. *)
let test_single_vote_round () =
  let check (trace : (int * int * Message.t) list) name =
    let count ty =
      List.length (List.filter (fun (_, _, m) -> Message.type_name m = ty) trace)
    in
    Alcotest.(check int) (name ^ ": no precommit votes") 0 (count "VOTE-PRECOMMIT");
    Alcotest.(check int) (name ^ ": no commit votes") 0 (count "VOTE-COMMIT");
    Alcotest.(check bool) (name ^ ": prepare votes flow") true
      (count "VOTE-PREPARE" > 0)
  in
  let tm = HM.create () in
  HM.start tm;
  HM.submit_ops tm ~client:1 ~count:10;
  check tm.HM.trace "marlin";
  let th = HH.create () in
  HH.start th;
  HH.submit_ops th ~client:1 ~count:10;
  check th.HH.trace "hotstuff"

(* The structural difference the paper measures: with the tail flushed,
   chained Marlin needs a two-chain and chained HotStuff a three-chain,
   so Marlin's flush appends one empty block, HotStuff's two. *)
let test_chain_depths () =
  let tm = HM.create () in
  HM.start tm;
  HM.submit tm (Operation.make ~client:1 ~seq:1 ~body:"x");
  let th = HH.create () in
  HH.start th;
  HH.submit th (Operation.make ~client:1 ~seq:1 ~body:"x");
  (* Count blocks above the op-bearing block on the committed branch tip's
     store: Marlin's store tip should be one shorter than HotStuff's. *)
  let m_store_size = Block_store.size (CM.block_store (HM.proto tm 1)) in
  let h_store_size = Block_store.size (CH.block_store (HH.proto th 1)) in
  Alcotest.(check bool) "hotstuff needs a deeper flush chain" true
    (h_store_size > m_store_size)

let test_marlin_view_change () =
  let t = HM.create () in
  HM.start t;
  HM.submit_ops t ~client:1 ~count:5;
  let before = HM.min_committed t in
  HM.crash t 0;
  HM.submit t (Operation.make ~client:2 ~seq:1 ~body:"after-crash");
  HM.timeout_all t;
  Alcotest.(check bool) "safety" true (HM.check_safety t);
  Alcotest.(check bool) "progress resumed" true (HM.min_committed t > before);
  Alcotest.(check bool) "new op committed" true
    (List.exists (fun o -> o.Operation.body = "after-crash") (HM.committed_ops t 2))

let test_hotstuff_view_change () =
  let t = HH.create () in
  HH.start t;
  HH.submit_ops t ~client:1 ~count:5;
  let before = HH.min_committed t in
  HH.crash t 0;
  HH.submit t (Operation.make ~client:2 ~seq:1 ~body:"after-crash");
  HH.timeout_all t;
  Alcotest.(check bool) "safety" true (HH.check_safety t);
  Alcotest.(check bool) "progress resumed" true (HH.min_committed t > before);
  Alcotest.(check bool) "new op committed" true
    (List.exists (fun o -> o.Operation.body = "after-crash") (HH.committed_ops t 2))

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

let test_marlin_chains_identical () =
  let t = HM.create () in
  HM.start t;
  HM.submit_ops t ~client:7 ~count:25;
  let reference = HM.committed_ops t 0 in
  List.iter
    (fun id ->
      let ops = HM.committed_ops t id in
      Alcotest.(check int) "same length" (List.length reference) (List.length ops);
      List.iter2
        (fun a b -> Alcotest.(check bool) "same order" true (Operation.equal a b))
        reference ops)
    [ 1; 2; 3 ]

let suite =
  [
    ("chained marlin: single op commits", `Quick, test_marlin_commit);
    ("chained hotstuff: single op commits", `Quick, test_hotstuff_commit);
    ("chained marlin: stream of ops", `Quick, test_marlin_stream);
    ("chained hotstuff: stream of ops", `Quick, test_hotstuff_stream);
    ("chained: one voting round per block", `Quick, test_single_vote_round);
    ("chained: two-chain vs three-chain depth", `Quick, test_chain_depths);
    ("chained marlin: view change", `Quick, test_marlin_view_change);
    ("chained hotstuff: view change", `Quick, test_hotstuff_view_change);
    ("chained marlin: unhappy VC with hidden lock", `Quick, test_marlin_chained_unhappy_vc);
    ("chained marlin: chains identical", `Quick, test_marlin_chains_identical);
  ]

let () = Alcotest.run "chained" [ ("chained", suite) ]
