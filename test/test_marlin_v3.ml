(* Case V3: a Byzantine leader equivocates during the pre-prepare phase,
   leaving two pre-prepareQCs of equal rank in the system. The paper's
   Lemma 4 says this is the worst that can happen, and Case V3 of the next
   view change handles it: the new leader proposes two shadow blocks, one
   extending each certified block, and the protocol converges safely.

   Construction (n = 4, replica 1 Byzantine):
   - view 0: b1 commits; b2 forms a prepareQC that only the old leader
     r0 sees (r0 is locked on it, honestly);
   - view 1: Byzantine leader r1 proposes a Case-V1-style shadow pair
     justified by qc(b1). r0 votes only for the virtual block (rule R2,
     attaching qc(b2)); r2 and r3 vote for both (rule R1). r1 combines
     the votes into BOTH pre-prepareQCs, then equivocates: it sends the
     normal block to r3 and the virtual block to r2, so their high QCs
     diverge, and stalls;
   - view 2: honest leader r2's snapshot contains the two equal-rank
     pre-prepareQCs — Case V3 — and the system must recover. *)

open Marlin_types
module P = Marlin_runtime.Registry.Marlin
module H = Test_support.Harness.Make (P)
module Qc = Marlin_types.Qc
module Threshold = Marlin_crypto.Threshold

let test_v3 () =
  let t = H.create () in
  let kc = H.keychain t in
  H.start t;

  (* --- stage: commit b1; only r0 (the leader itself) holds qc(b2) --- *)
  H.hide_lock t ~locked:None;
  Alcotest.(check int) "b1 committed" 1 (H.min_committed t);
  let qc_b2 = P.locked_qc (H.proto t 0) in
  Alcotest.(check int) "r0 locked at height 2" 2 qc_b2.Qc.block.Qc.height;
  let qc_b1 =
    match P.high_qc (H.proto t 2) with
    | High_qc.Single qc -> qc
    | High_qc.Paired _ -> Alcotest.fail "unexpected paired high"
  in
  Alcotest.(check int) "others hold qc(b1)" 1 qc_b1.Qc.block.Qc.height;
  let b1_block =
    match Block_store.find (P.block_store (H.proto t 2)) qc_b1.Qc.block.Qc.digest with
    | Some b -> b
    | None -> Alcotest.fail "b1 missing"
  in

  (* --- view 1: Byzantine r1 --- *)
  (* Silence r1's honest instance and capture every vote addressed to it. *)
  let captured : (string * Qc.phase, Threshold.partial list) Hashtbl.t =
    Hashtbl.create 8
  in
  let locked_attachments = ref [] in
  H.set_transform t (fun ~src ~dst m ->
      if src = 1 then None (* the Byzantine replica's honest self stays mute *)
      else if dst = 1 then begin
        (match m.Message.payload with
        | Message.Vote { kind; block; partial; locked } ->
            let key = (Marlin_crypto.Sha256.to_raw block.Qc.digest, kind) in
            Hashtbl.replace captured key
              (partial :: Option.value ~default:[] (Hashtbl.find_opt captured key));
            (match locked with
            | Some qc -> locked_attachments := qc :: !locked_attachments
            | None -> ())
        | _ -> ());
        None
      end
      else Some m);
  H.timeout_all t;

  (* The Byzantine leader broadcasts the V1-style shadow pair itself. *)
  let payload = Batch.of_list [ Operation.make ~client:9 ~seq:1 ~body:"byz" ] in
  let b_n =
    Block.make_normal ~parent:b1_block ~view:1 ~payload ~justify:(Block.J_qc qc_b1)
  in
  let b_v =
    Block.make_virtual ~pview:b1_block.Block.view ~view:1
      ~height:(b1_block.Block.height + 2) ~payload ~justify:(Block.J_qc qc_b1)
  in
  let pre_prepare =
    Message.make ~sender:1 ~view:1 (Message.Pre_prepare { proposals = [ b_n; b_v ] })
  in
  List.iter (fun dst -> H.inject t ~src:1 ~dst pre_prepare) [ 0; 2; 3 ];
  H.run t;

  (* r0 must have voted only for the virtual block, attaching qc(b2). *)
  Alcotest.(check bool) "r0's R2 lockedQC captured" true
    (List.exists (fun qc -> Qc.equal qc qc_b2) !locked_attachments);
  let partials_for b kind =
    Option.value ~default:[]
      (Hashtbl.find_opt captured
         (Marlin_crypto.Sha256.to_raw (Block.digest b), kind))
  in
  Alcotest.(check int) "normal block votes: r2, r3" 2
    (List.length (partials_for b_n Qc.Pre_prepare));
  Alcotest.(check int) "virtual block votes: r0, r2, r3" 3
    (List.length (partials_for b_v Qc.Pre_prepare));

  (* The Byzantine leader adds its own signature to both and combines two
     equal-rank pre-prepareQCs — the extreme case of Lemma 4. *)
  let own b = Qc.sign_vote kc ~signer:1 ~phase:Qc.Pre_prepare ~view:1 (Block.to_ref b) in
  let combine b partials =
    match
      Qc.combine kc ~threshold:3 ~phase:Qc.Pre_prepare ~view:1 (Block.to_ref b)
        (own b :: partials)
    with
    | Ok qc -> qc
    | Error e -> Alcotest.failf "combine: %s" e
  in
  let ppqc_n = combine b_n (partials_for b_n Qc.Pre_prepare) in
  let ppqc_v = combine b_v (partials_for b_v Qc.Pre_prepare) in
  Alcotest.(check bool) "the two pre-prepareQCs have equal rank" true
    (Rank.qc ppqc_n ppqc_v = Rank.Eq);

  (* Equivocation: the normal block goes to r3, the virtual one to r2. *)
  H.inject t ~src:1 ~dst:3
    (Message.make ~sender:1 ~view:1
       (Message.Propose { block = b_n; justify = High_qc.Single ppqc_n }));
  H.inject t ~src:1 ~dst:2
    (Message.make ~sender:1 ~view:1
       (Message.Propose { block = b_v; justify = High_qc.Paired (ppqc_v, qc_b2) }));
  H.run t;
  (match P.high_qc (H.proto t 3) with
  | High_qc.Single qc ->
      Alcotest.(check bool) "r3 now holds the normal pre-prepareQC" true
        (Qc.equal qc ppqc_n)
  | High_qc.Paired _ -> Alcotest.fail "r3 should hold a single ppqc");
  (match P.high_qc (H.proto t 2) with
  | High_qc.Paired (qc, vc) ->
      Alcotest.(check bool) "r2 holds the virtual pair" true
        (Qc.equal qc ppqc_v && Qc.equal vc qc_b2)
  | High_qc.Single _ -> Alcotest.fail "r2 should hold the (qc, vc) pair");

  (* --- view 2: honest leader faces Case V3 --- *)
  H.clear_filter t;
  (* keep the Byzantine replica silent; everyone else behaves *)
  H.set_transform t (fun ~src ~dst:_ m -> if src = 1 then None else Some m);
  H.timeout_all t;
  let v3_pre_prepares =
    List.filter_map
      (fun (src, _, m) ->
        match m.Message.payload with
        | Message.Pre_prepare { proposals } when src = 2 && m.Message.view = 2 ->
            Some proposals
        | _ -> None)
      t.H.trace
  in
  Alcotest.(check bool) "leader 2 ran the pre-prepare phase" true
    (List.length v3_pre_prepares > 0);
  Alcotest.(check int) "with two shadow proposals (Case V3)" 2
    (List.length (List.hd v3_pre_prepares));
  let justifies_are_ppqcs =
    List.for_all
      (fun (b : Block.t) ->
        match Block.primary_justify b with
        | Some qc -> Qc.phase_equal qc.Qc.phase Qc.Pre_prepare
        | None -> false)
      (List.hd v3_pre_prepares)
  in
  Alcotest.(check bool) "each extends a pre-prepareQC-certified block" true
    justifies_are_ppqcs;

  (* The system recovered: new operations commit at every correct replica,
     and safety held throughout. *)
  H.submit t (Operation.make ~client:1 ~seq:3 ~body:"after-v3");
  Alcotest.(check bool) "safety" true (H.check_safety t);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d committed the new op" id)
        true
        (List.exists
           (fun o -> o.Operation.body = "after-v3")
           (H.committed_ops t id)))
    [ 0; 2; 3 ]

let () =
  Alcotest.run "marlin-v3"
    [ ("marlin-v3", [ ("Case V3: equivocating leader, dual pre-prepareQCs", `Quick, test_v3) ]) ]
