(* Figure 2 as a runnable demonstration: the same adversarial view-change
   schedule against "two-phase HotStuff (insecure)" (Section IV-B) and
   Marlin. See test/test_liveness.ml for the assertion-checked version.
   [run] returns whether both outcomes held: the strawman is stuck at one
   block, and Marlin commits the hidden b2 with agreement intact. *)

open Marlin_types

module I = Marlin_core.Twophase_insecure
module M = Marlin_runtime.Registry.Marlin
module HI = Test_support.Harness.Make (I)
module HM = Test_support.Harness.Make (M)

let run () =
  Printf.printf "\n=== Figure 2 demo: why naive two-phase HotStuff loses liveness ===\n";
  Printf.printf
    "Schedule: b1 commits; b2 reaches a prepareQC that only replica 2 sees\n\
     (it locks); the view change to replica 1 gets an unsafe snapshot: the\n\
     Byzantine old leader hides b2's QC and replica 2's message is late.\n\n";

  (* --- the insecure strawman --- *)
  let t = HI.create () in
  HI.start t;
  HI.hide_lock t ~locked:(Some 2);
  ignore (HI.unsafe_snapshot t);
  HI.timeout_all t;
  HI.submit t (Operation.make ~client:1 ~seq:3 ~body:"b3");
  let stuck = HI.max_committed t = 1 in
  Printf.printf
    "two-phase insecure: view=%d, commits stuck at %d block(s);\n\
     replica 2 rejected %d conflicting proposal(s) — locked forever.\n"
    (I.current_view (HI.proto t 1))
    (HI.max_committed t)
    (I.rejected_proposals (HI.proto t 2));

  (* --- Marlin under the same schedule --- *)
  let t = HM.create () in
  HM.start t;
  HM.hide_lock t ~locked:(Some 2);
  ignore (HM.unsafe_snapshot t);
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
  let b2_committed =
    List.exists (fun (o : Operation.t) -> String.equal o.body "b2") (HM.committed_ops t 3)
  in
  let safe = HM.check_safety t in
  Printf.printf
    "marlin:             view=%d, all correct replicas committed %d block(s)\n\
     (hidden b2 among them: %b); virtual shadow block used: %b; safety: %b.\n"
    (M.current_view (HM.proto t 1))
    (HM.min_committed t) b2_committed virtual_used safe;
  stuck && b2_committed && safe
