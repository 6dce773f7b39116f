(* The protocol conformance matrix: one row per protocol in
   [Registry.all ()], declared once with the facts the paper states for
   it, and every generic case run against every row. Each case derives
   what it checks from the row's facts:

   - voting phases per block: two for Marlin and the two-phase strawman,
     three for HotStuff ([Complexity.happy_phases]), one round when
     chained, PBFT's two all-to-all;
   - the messages one lone operation puts on the wire at n = 4;
   - the empty blocks appended to flush the tail: one for chained
     Marlin's two-chain, two for chained HotStuff's three-chain;
   - the message kinds a view change sends (never PRE-PREPARE: only an
     unhappy Marlin view change runs that phase);
   - how a replica partitioned through a view change catches up.

   Constructions of single paper cases stay in the per-protocol files:
   Marlin's V1/V2 (test_marlin) and V3 (test_marlin_v3), HotStuff's lock
   (test_hotstuff), PBFT's view change (test_pbft), chained Marlin's
   hidden lock and the two-chain against three-chain flush depth
   (test_chained) and Figure 2b (test_liveness). *)

open Marlin_types
module C = Marlin_core.Consensus_intf
module Complexity = Marlin_analysis.Complexity
module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Registry = Marlin_runtime.Registry

type votes = To_leader | All_to_all

(* PBFT has no fast-forward on a later view's message: a straggler
   rejoins only through view changes of its own. *)
type catch_up = Fast_forward | By_view_change

type expect = {
  phases : int;
  votes : votes;
  messages : int;
  flush : int;
  vc_kinds : string list;
  catch_up : catch_up;
  tput_floor : float;  (* simulated-cluster bounds *)
  latency : (float * float) option;
}

let linear ~phases ~messages ~flush ~vc_kinds ~tput_floor =
  {
    phases;
    votes = To_leader;
    messages;
    flush;
    vc_kinds;
    catch_up = Fast_forward;
    tput_floor;
    latency = None;
  }

(* A chained protocol's lone operation costs what the basic protocol's
   does: its flush blocks carry the phases. *)
let rows =
  [
    ( "chained-hotstuff",
      linear ~phases:1 ~messages:21 ~flush:2 ~vc_kinds:[ "NEW-VIEW" ] ~tput_floor:30. );
    ( "chained-marlin",
      {
        (linear ~phases:1 ~messages:15 ~flush:1 ~vc_kinds:[ "VIEW-CHANGE" ] ~tput_floor:30.)
        with
        latency = Some (0.08, 1.0) (* above one network RTT, below 1 s *);
      } );
    ( "hotstuff",
      linear
        ~phases:(Complexity.happy_phases Hotstuff)
        ~messages:(Complexity.happy_messages Hotstuff ~n:4)
        ~flush:0 ~vc_kinds:[ "NEW-VIEW" ] ~tput_floor:0. );
    ( "marlin",
      linear
        ~phases:(Complexity.happy_phases Marlin)
        ~messages:(Complexity.happy_messages Marlin ~n:4)
        ~flush:0 ~vc_kinds:[ "VIEW-CHANGE" ] ~tput_floor:0. );
    ( "pbft",
      {
        phases = 2;
        votes = All_to_all;
        messages = 27;
        flush = 0;
        vc_kinds = [ "NEW-VIEW"; "NEW-VIEW-PROOF" ];
        catch_up = By_view_change;
        tput_floor = 30.;
        latency = None;
      } );
    ( "twophase-insecure",
      linear
        ~phases:(Complexity.happy_phases Marlin)
        ~messages:(Complexity.happy_messages Marlin ~n:4)
        ~flush:0 ~vc_kinds:[ "NEW-VIEW" ] ~tput_floor:0. );
  ]

let phase_kinds = function
  | 1 -> [ "PREPARE" ]
  | 2 -> [ "PREPARE"; "COMMIT" ]
  | _ -> [ "PREPARE"; "PRECOMMIT"; "COMMIT" ]

let operation =
  Alcotest.testable
    (fun ppf o -> Fmt.pf ppf "%d.%d %S" o.Operation.client o.Operation.seq o.Operation.body)
    Operation.equal

module Cases (P : C.PROTOCOL) = struct
  module H = Test_support.Harness.Make (P)

  let op ?(client = 1) seq body = Operation.make ~client ~seq ~body
  let view t id = P.current_view (H.proto t id)
  let executed t id = List.length (H.committed_ops t id)
  let has t id body = List.exists (fun o -> o.Operation.body = body) (H.committed_ops t id)
  let check_safety t = Alcotest.(check bool) "safety invariant" true (H.check_safety t)

  let count t kind =
    List.length
      (List.filter (fun (_, _, m) -> String.equal (Message.type_name m) kind) t.H.trace)

  let started ?n ?f () =
    let t = H.create ?n ?f () in
    H.start t;
    t

  (* The view changes so far sent the row's kinds, each at least twice
     (n = 4, one replica down or every replica rotating), and no other;
     every NEW-VIEW-PROOF carries a quorum (2f + 1) of certificates. *)
  let check_view_changes e t =
    List.iter
      (fun kind ->
        if List.mem kind e.vc_kinds then
          Alcotest.(check bool) (kind ^ " sent") true (count t kind >= 2)
        else Alcotest.(check int) (kind ^ " never sent") 0 (count t kind))
      [ "VIEW-CHANGE"; "NEW-VIEW"; "NEW-VIEW-PROOF"; "PRE-PREPARE" ];
    List.iter
      (fun (_, _, m) ->
        match m.Message.payload with
        | Message.New_view_proof { proof; _ } ->
            Alcotest.(check bool) "carries a certificate quorum" true (List.length proof >= 3)
        | _ -> ())
      t.H.trace

  let initial_state _ () =
    let t = started () in
    for id = 0 to 3 do
      let p = H.proto t id in
      Alcotest.(check int) "view 0" 0 (P.current_view p);
      Alcotest.(check bool) "genesis locked" true (Qc.is_genesis (P.locked_qc p));
      Alcotest.(check int) "nothing committed" 0 (P.committed_count p)
    done;
    Alcotest.(check bool) "replica 0 leads view 0" true (P.is_leader (H.proto t 0))

  (* Tail flushing lets a lone operation commit: genesis, its block and
     the flush blocks are all a replica stores. *)
  let normal_commit e () =
    let t = started () in
    H.submit t (op 1 "hello");
    check_safety t;
    Alcotest.(check int) "every replica committed one block" 1 (H.min_committed t);
    for id = 0 to 3 do
      Alcotest.(check (list string)) "the operation, intact" [ "hello" ]
        (List.map (fun o -> o.Operation.body) (H.committed_ops t id));
      Alcotest.(check int) "blocks stored" (2 + e.flush)
        (Block_store.size (P.block_store (H.proto t id)))
    done

  let multiple_blocks _ () =
    let t = started () in
    H.submit_ops t ~client:1 ~count:50;
    check_safety t;
    (* 50 ops at batch_max = 16 need at least 4 blocks, all in view 0. *)
    Alcotest.(check bool) "several blocks committed" true (H.min_committed t >= 4);
    for id = 0 to 3 do
      Alcotest.(check int) "still view 0" 0 (view t id);
      Alcotest.(check int) "all 50 ops committed" 50 (executed t id)
    done

  let chains_identical _ () =
    let t = started () in
    H.submit_ops t ~client:7 ~count:25;
    let reference = H.committed_ops t 0 in
    Alcotest.(check int) "all 25 executed" 25 (List.length reference);
    for id = 1 to 3 do
      Alcotest.(check (list operation)) "same ops, same order" reference (H.committed_ops t id)
    done

  (* A client may resubmit an operation it has not heard back about. Once
     committed, it is a mempool duplicate: no replica proposes it again. *)
  let resubmitted e () =
    let t = started () in
    let once = op 1 "once" in
    H.submit t once;
    let proposals = 3 * (1 + e.flush) in
    Alcotest.(check int) "one block (and its flush) proposed" proposals (count t "PROPOSE");
    H.submit t once;
    Alcotest.(check int) "no second proposal" proposals (count t "PROPOSE");
    Alcotest.(check int) "still one block committed" 1 (H.max_committed t);
    Alcotest.(check int) "executed once" 1 (executed t 0)

  let view_change_after_commits e () =
    let t = started () in
    H.submit_ops t ~client:1 ~count:5;
    let before = H.min_committed t in
    Alcotest.(check bool) "some commits before the crash" true (before >= 1);
    H.crash t 0;
    H.submit t (op ~client:2 1 "after-crash");
    H.timeout_all t;
    check_safety t;
    Alcotest.(check int) "view advanced" 1 (view t 1);
    Alcotest.(check bool) "progress resumed" true (H.min_committed t > before);
    for id = 1 to 3 do
      Alcotest.(check bool) "new op committed" true (has t id "after-crash")
    done;
    check_view_changes e t

  (* The leader crashes before it proposes anything: every replica still
     holds only genesis, so the view change is happy. *)
  let leader_down ~count =
    let t = started () in
    H.crash t 0;
    H.submit_ops t ~client:4 ~count;
    Alcotest.(check int) "nothing committed under a dead leader" 0 (H.max_committed t);
    H.timeout_all t;
    check_safety t;
    t

  let happy_view_change e () =
    let t = leader_down ~count:1 in
    Alcotest.(check int) "new view is 1" 1 (view t 1);
    Alcotest.(check bool) "replica 1 leads" true (P.is_leader (H.proto t 1));
    Alcotest.(check bool) "op committed after view change" true (H.min_committed t >= 1);
    check_view_changes e t

  (* Ops submitted while the leader is down all survive into the new view. *)
  let no_ops_lost _ () =
    let t = leader_down ~count:8 in
    for id = 1 to 3 do
      Alcotest.(check int) "all 8 executed" 8 (executed t id)
    done

  (* A certificate takes n - f = 3 votes: with two of four replicas down,
     no certificate forms and nothing commits, view changes or not. *)
  let no_quorum _ () =
    let t = started () in
    H.crash t 2;
    H.crash t 3;
    H.submit t (op 1 "stuck");
    H.timeout_all t;
    Alcotest.(check bool) "no certificate on the wire" false
      (List.exists
         (fun (_, _, m) -> String.starts_with ~prefix:"CERT-" (Message.type_name m))
         t.H.trace);
    Alcotest.(check int) "nothing committed" 0 (H.max_committed t)

  (* Two leaders crash back to back (n = 7, so the fault budget allows it). *)
  let cascading _ () =
    let t = started ~n:7 ~f:2 () in
    H.submit_ops t ~client:1 ~count:3;
    H.crash t 0;
    H.submit t (op ~client:2 1 "x1");
    H.timeout_all t;
    Alcotest.(check int) "view 1" 1 (view t 1);
    Alcotest.(check bool) "x1 committed in view 1" true (has t 3 "x1");
    H.crash t 1;
    H.submit t (op ~client:2 2 "x2");
    H.timeout_all t;
    check_safety t;
    Alcotest.(check int) "view 2" 2 (view t 2);
    for id = 2 to 6 do
      Alcotest.(check bool) "x1 and x2 committed" true (has t id "x1" && has t id "x2")
    done

  (* Replica 6 is cut off through a view change. After the heal, the next
     proposal carries a view-1 QC: proof that a quorum moved on, so a
     replica that fast-forwards joins view 1 and fetches the block bodies
     it missed with no timer. A PBFT straggler stays in view 0 and needs
     two rounds of timeouts: view 2, where replicas 4 and 5 already are
     (their own timeouts came after the f + 1 join rule pulled them into
     view 1). *)
  let catch_up e () =
    let t = started ~n:7 ~f:2 () in
    H.submit t (op 1 "b1");
    Alcotest.(check int) "b1 committed" 1 (H.min_committed t);
    H.crash t 0;
    H.set_filter t (fun ~src ~dst _ -> src <> 6 && dst <> 6);
    H.submit t (op 2 "during-partition");
    List.iter (H.timeout t) [ 1; 2; 3; 4; 5 ];
    Alcotest.(check bool) "view 1 committed without replica 6" true
      (has t 2 "during-partition");
    Alcotest.(check int) "replica 6 still in view 0" 0 (view t 6);
    H.clear_filter t;
    H.submit t (op 3 "after-heal");
    check_safety t;
    let fast_forward, pump_rounds =
      match e.catch_up with Fast_forward -> (1, 0) | By_view_change -> (0, 2)
    in
    Alcotest.(check int) "replica 6's view after the heal" fast_forward (view t 6);
    Alcotest.(check int) "timeout rounds to catch up" pump_rounds
      (H.pump_timeouts t ~until:(fun () -> executed t 6 = 3));
    check_safety t;
    Alcotest.(check int) "replica 6 executed everything" 3 (executed t 6);
    Alcotest.(check int) "replica 6 in the quorum's view" (view t 1) (view t 6)

  (* Idle timeouts rotate views with exponential backoff, on the happy
     path, and the cluster keeps committing afterwards. *)
  let idle_rotation e () =
    let t = started () in
    H.submit t (op 1 "only");
    H.timeout_all t;
    H.timeout_all t;
    Alcotest.(check int) "two idle rotations" 2 (view t 2);
    check_view_changes e t;
    Alcotest.(check bool) "backoff doubled the timer" true ((H.node t 2).H.last_timer > 1.5);
    H.submit t (op 2 "after-idle");
    check_safety t;
    Alcotest.(check int) "cluster still commits" 2 (executed t 3)

  (* One lone operation at n = 4: each block proposed to the 3 others;
     per voting phase and block, 3 votes to the leader, which broadcasts one
     certificate per phase, or 12 votes all-to-all and no certificate. *)
  let message_pattern e () =
    let t = started () in
    H.submit t (op 1 "x");
    let n = 4 and blocks = 1 + e.flush in
    let phases = phase_kinds e.phases in
    let votes, certs =
      match e.votes with
      | To_leader -> ((n - 1) * blocks, List.map (fun p -> ("CERT-" ^ p, n - 1)) phases)
      | All_to_all -> (n * (n - 1) * blocks, [])
    in
    let expected =
      (("PROPOSE", (n - 1) * blocks) :: List.map (fun p -> ("VOTE-" ^ p, votes)) phases)
      @ certs
    in
    let kinds =
      List.sort_uniq String.compare
        (List.map (fun (_, _, m) -> Message.type_name m) t.H.trace)
    in
    Alcotest.(check (list (pair string int)))
      "messages per kind"
      (List.sort (fun (a, _) (b, _) -> String.compare a b) expected)
      (List.map (fun kind -> (kind, count t kind)) kinds);
    Alcotest.(check int) "messages on the wire" e.messages (List.length t.H.trace)

  (* The full simulator (network, CPU and disk models) with 16
     closed-loop clients at f = 1. *)
  let cluster_commits e () =
    let params =
      {
        (Cluster.params_for_f
           ~workload:(Marlin_workload.Workload.closed_loop ~clients:16) 1)
        with
        Cluster.seed = 7;
      }
    in
    let r =
      Experiment.run
        (module P)
        ~params
        (Experiment.Closed { warmup = 1.0; duration = 3.0; crashed = [] })
    in
    Alcotest.(check bool) "agreement" true r.Experiment.agreement;
    Alcotest.(check bool)
      (Printf.sprintf "throughput above %g op/s" e.tput_floor)
      true
      (r.Experiment.throughput > e.tput_floor);
    Option.iter
      (fun (lo, hi) ->
        let mean = r.Experiment.latency.Marlin_analysis.Stats.mean in
        Alcotest.(check bool) "mean latency in its window" true (mean > lo && mean < hi))
      e.latency

  let cases e =
    List.map
      (fun (title, case) -> (title, `Quick, case e))
      [
        ("initial state", initial_state);
        ("normal case commit", normal_commit);
        ("multiple blocks in one view", multiple_blocks);
        ("chains identical across replicas", chains_identical);
        ("a committed operation resubmitted is not re-proposed", resubmitted);
        ("view change via " ^ String.concat " + " e.vc_kinds, view_change_after_commits);
        ("happy-path view change", happy_view_change);
        ("no ops lost across view change", no_ops_lost);
        ("no commit without a quorum", no_quorum);
        ("cascading view changes", cascading);
        ( (match e.catch_up with
          | Fast_forward -> "fast-forward catch-up"
          | By_view_change -> "catch-up by view change"),
          catch_up );
        ("idle rotation stays happy & backs off", idle_rotation);
        ( (match e.phases with 1 -> "one" | 2 -> "two" | _ -> "three") ^ "-phase message pattern",
          message_pattern );
        ("cluster commits", cluster_commits);
      ]
end

let test_rows_cover_registry () =
  Alcotest.(check (list string))
    "one row per registered protocol, in registry order"
    (List.map fst (Registry.all ()))
    (List.map fst rows)

(* One Alcotest run per row: a run cuts case titles to the width its
   longest group name leaves, so each row's titles print as wide as its
   own name allows, as they did in the per-protocol suites. *)
let () =
  let failed = ref false in
  let run name groups =
    try Alcotest.run ~and_exit:false name groups with Alcotest.Test_error -> failed := true
  in
  run "protocols"
    [ ("matrix", [ ("one row per registered protocol", `Quick, test_rows_cover_registry) ]) ];
  List.iter
    (fun (name, e) ->
      let (module P : C.PROTOCOL) = Registry.find_exn name in
      let module K = Cases (P) in
      run ("protocols-" ^ name) [ (name, K.cases e) ])
    rows;
  if !failed then exit 1
