(* Figure 2 as a runnable demonstration: the same adversarial view-change
   schedule against "two-phase HotStuff (insecure)" (Section IV-B) and
   Marlin. See test/test_liveness.ml for the assertion-checked version. *)

open Marlin_types
module Qc = Marlin_types.Qc

module I = Marlin_core.Twophase_insecure
module M = Marlin_runtime.Registry.Marlin
module HI = Test_support.Harness.Make (I)
module HM = Test_support.Harness.Make (M)

(* Stage the hidden lock: commit b1, then let b2's prepareQC reach only
   replica 2. *)
let stage_insecure t =
  HI.start t;
  HI.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  HI.set_filter t (fun ~src ~dst m ->
      match m.Message.payload with
      | Message.Phase_cert qc
        when src = 0
             && Qc.phase_equal qc.Qc.phase Qc.Prepare
             && qc.Qc.block.Qc.height = 2 ->
          dst = 2
      | _ -> true);
  HI.submit t (Operation.make ~client:1 ~seq:2 ~body:"b2")

let run () =
  Printf.printf "\n=== Figure 2 demo: why naive two-phase HotStuff loses liveness ===\n";
  Printf.printf
    "Schedule: b1 commits; b2 reaches a prepareQC that only replica 2 sees\n\
     (it locks); the view change to replica 1 gets an unsafe snapshot: the\n\
     Byzantine old leader hides b2's QC and replica 2's message is late.\n\n";

  (* --- the insecure strawman --- *)
  let t = HI.create () in
  stage_insecure t;
  let qc_b1 =
    match I.high_qc (HI.proto t 1) with
    | High_qc.Single qc -> qc
    | High_qc.Paired _ -> assert false
  in
  HI.set_transform t (fun ~src ~dst m ->
      match m.Message.payload with
      | Message.New_view _ when src = 2 && dst = 1 -> None
      | Message.New_view _ when src = 0 && dst = 1 ->
          Some
            (Message.make ~sender:0 ~view:m.Message.view
               (Message.New_view { justify = qc_b1 }))
      | Message.Vote _ when src = 0 -> None
      | _ -> Some m);
  HI.timeout_all t;
  HI.submit t (Operation.make ~client:1 ~seq:3 ~body:"b3");
  Printf.printf
    "two-phase insecure: view=%d, commits stuck at %d block(s);\n\
     replica 2 rejected %d conflicting proposal(s) — locked forever.\n"
    (I.current_view (HI.proto t 1))
    (HI.max_committed t)
    (I.rejected_proposals (HI.proto t 2));

  (* --- Marlin under the same schedule --- *)
  let t = HM.create () in
  let kc = HM.keychain t in
  HM.start t;
  HM.submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
  HM.set_filter t (fun ~src ~dst m ->
      match m.Message.payload with
      | Message.Phase_cert qc
        when src = 0
             && Qc.phase_equal qc.Qc.phase Qc.Prepare
             && qc.Qc.block.Qc.height = 2 ->
          dst = 2
      | _ -> true);
  HM.submit t (Operation.make ~client:1 ~seq:2 ~body:"b2");
  let qc_b1 =
    match M.high_qc (HM.proto t 1) with
    | High_qc.Single qc -> qc
    | High_qc.Paired _ -> assert false
  in
  let b1_summary =
    match Block_store.find (M.block_store (HM.proto t 1)) qc_b1.Qc.block.Qc.digest with
    | Some b -> Block.summary b
    | None -> assert false
  in
  HM.set_transform t (fun ~src ~dst m ->
      match m.Message.payload with
      | Message.View_change _ when src = 2 && dst = 1 -> None
      | Message.View_change _ when src = 0 && dst = 1 ->
          let parsig =
            Qc.sign_vote kc ~signer:0 ~phase:Qc.Prepare ~view:m.Message.view
              b1_summary.Block.b_ref
          in
          Some
            (Message.make ~sender:0 ~view:m.Message.view
               (Message.View_change
                  { last = b1_summary; justify = High_qc.Single qc_b1; parsig }))
      | Message.Vote _ when src = 0 -> None
      | _ -> Some m);
  HM.timeout_all t;
  HM.clear_filter t;
  let virtual_used =
    List.exists
      (fun (_, _, m) ->
        match m.Message.payload with
        | Message.Pre_prepare { proposals } -> List.exists Block.is_virtual proposals
        | _ -> false)
      t.HM.trace
  in
  Printf.printf
    "marlin:             view=%d, all correct replicas committed %d block(s)\n\
     including the hidden b2; virtual shadow block used: %b; safety: %b.\n"
    (M.current_view (HM.proto t 1))
    (HM.min_committed t) virtual_used (HM.check_safety t)
