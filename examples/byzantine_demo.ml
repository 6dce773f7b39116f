(* The paper's Figure 2, step by step.

     dune exec examples/byzantine_demo.exe

   Reproduces the adversarial schedule of Section IV against both the
   insecure two-phase strawman (Figure 2b — it livelocks) and Marlin
   (Figure 2c — the virtual shadow block recovers the hidden lock). The
   run drives the protocol state machines directly through a loopback
   harness, with a Byzantine replica that hides the highest QC and a
   "late" view-change message from the locked replica. *)

open Marlin_types
module Qc = Marlin_types.Qc

module I = Marlin_core.Twophase_insecure
module M = Marlin_runtime.Registry.Marlin
module HI = Test_support.Harness.Make (I)
module HM = Test_support.Harness.Make (M)

let () =
  Printf.printf "Step 1: block b1 commits normally at all four replicas.\n";
  Printf.printf
    "Step 2: block b2 gets a prepareQC, but only replica 2 receives it —\n\
    \        replica 2 is now LOCKED on a QC nobody else knows about.\n";
  Printf.printf
    "Step 3: view change to replica 1. Its snapshot is UNSAFE: Byzantine\n\
    \        replica 0 hides b2's QC, and replica 2's message arrives late.\n\n";

  (* ---- the strawman (Figure 2b) ---- *)
  let t = HI.create () in
  HI.start t;
  HI.hide_lock t ~locked:(Some 2);
  ignore (HI.unsafe_snapshot t);
  HI.timeout_all t;
  HI.submit t (Operation.make ~client:1 ~seq:3 ~body:"b3");
  let stuck = HI.max_committed t = 1 in
  Printf.printf
    "Two-phase HotStuff (insecure):\n\
    \  the new leader extends b1, conflicting with replica 2's lock;\n\
    \  replica 2 refused %d proposal(s); nothing can unlock it.\n\
    \  Result: %d block(s) committed — the system is STUCK (Figure 2b).\n\n"
    (I.rejected_proposals (HI.proto t 2))
    (HI.max_committed t);

  (* ---- Marlin (Figure 2c) ---- *)
  let t = HM.create () in
  HM.start t;
  HM.hide_lock t ~locked:(Some 2);
  ignore (HM.unsafe_snapshot t);
  HM.timeout_all t;
  HM.clear_filter t;
  let shadow =
    List.find_map
      (fun (_, _, m) ->
        match m.Message.payload with
        | Message.Pre_prepare { proposals } -> Some proposals
        | _ -> None)
      (List.rev t.HM.trace)
  in
  (match shadow with
  | Some proposals ->
      Printf.printf
        "Marlin:\n\
        \  the leader is unsure its snapshot is safe, so it proposes %d shadow\n\
        \  blocks: a normal one and a virtual one (Case V1).\n" (List.length proposals)
  | None -> Printf.printf "Marlin: (no PRE-PREPARE seen?)\n");
  let r2_r2 =
    List.exists
      (fun (src, _, m) ->
        src = 2
        &&
        match m.Message.payload with
        | Message.Vote { kind = Qc.Pre_prepare; locked = Some _; _ } -> true
        | _ -> false)
      t.HM.trace
  in
  Printf.printf
    "  replica 2 votes only for the VIRTUAL block and attaches its hidden\n\
    \  lockedQC (rule R2): %b\n" r2_r2;
  Printf.printf
    "  the virtual block forms a pre-prepareQC, is validated by the revealed\n\
    \  QC, and commits — with the once-hidden b2 as its parent.\n";
  let b2_committed =
    List.exists (fun (o : Operation.t) -> o.body = "b2") (HM.committed_ops t 3)
  in
  let safe = HM.check_safety t in
  Printf.printf
    "  Result: %d block(s) committed at every correct replica (b2: %b); safety: %b\n"
    (HM.min_committed t) b2_committed safe;
  Printf.printf "\nSame schedule, same adversary: the strawman stalls, Marlin commits.\n";
  if not (stuck && b2_committed && safe) then exit 1
