(* Tests for the runtime layer: the mempool's dedup/requeue machinery and
   the cluster's measurement plumbing. *)

open Marlin_types
module Mempool = Marlin_runtime.Mempool
module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Workload = Marlin_workload.Workload

let op ?(client = 1) seq = Operation.make ~client ~seq ~body:""
let seqs ops = List.map (fun o -> o.Operation.seq) ops
let commit m ops = ignore (Mempool.mark_committed m ops : Operation.t list)

let admission =
  Alcotest.testable
    (fun fmt (a : Mempool.admission) ->
      Format.pp_print_string fmt
        (match a with
        | Mempool.Admitted -> "Admitted"
        | Mempool.Duplicate -> "Duplicate"
        | Mempool.Rejected Mempool.Pool_full -> "Rejected Pool_full"
        | Mempool.Rejected Mempool.Per_client_cap -> "Rejected Per_client_cap"))
    ( = )

(* ---------- mempool ---------- *)

let test_mempool_fifo () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "pending" 5 (Mempool.pending m);
  let taken = Mempool.take m ~max:3 in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ]
    (List.map (fun o -> o.Operation.seq) taken);
  Alcotest.(check int) "pending after take" 2 (Mempool.pending m)

let test_mempool_dedup () =
  let m = Mempool.create () in
  Alcotest.check admission "first add" Mempool.Admitted (Mempool.add m (op 1));
  Alcotest.check admission "duplicate rejected" Mempool.Duplicate
    (Mempool.add m (op 1));
  Alcotest.check admission "same seq other client ok" Mempool.Admitted
    (Mempool.add m (op ~client:2 1));
  Alcotest.(check int) "two pending" 2 (Mempool.pending m)

let test_mempool_commit_clears () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3 ];
  (* op 2 commits while still queued (another replica proposed it) *)
  Alcotest.(check (list int)) "first commit returned" [ 2 ]
    (seqs (Mempool.mark_committed m [ op 2 ]));
  Alcotest.(check int) "pending drops" 2 (Mempool.pending m);
  let taken = Mempool.take m ~max:10 in
  Alcotest.(check (list int)) "committed op skipped" [ 1; 3 ]
    (List.map (fun o -> o.Operation.seq) taken);
  Alcotest.check admission "committed op cannot re-enter" Mempool.Duplicate
    (Mempool.add m (op 2));
  Alcotest.(check bool) "is_committed" true (Mempool.is_committed m (op 2));
  Alcotest.(check bool) "taken, not committed" false (Mempool.is_committed m (op 1))

let test_mempool_requeue_taken () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3 ];
  let taken = Mempool.take m ~max:2 in
  Alcotest.(check int) "took two" 2 (List.length taken);
  (* op 1 commits; op 2's block was orphaned by a view change *)
  commit m [ op 1 ];
  Mempool.requeue_taken m;
  Alcotest.(check int) "op 2 back + op 3" 2 (Mempool.pending m);
  let again = Mempool.take m ~max:10 in
  Alcotest.(check bool) "orphaned op re-proposable" true
    (List.exists (fun o -> o.Operation.seq = 2) again);
  Alcotest.(check bool) "committed op stays out" true
    (not (List.exists (fun o -> o.Operation.seq = 1) again))

(* Regression for the batch-determinism bug: two replicas holding the
   same operation {e set} must propose byte-identical batches, whatever
   interleaving the network delivered the operations in. *)
let test_mempool_batch_canonical () =
  let ops = List.concat_map (fun c -> List.map (op ~client:c) [ 3; 1; 2 ]) [ 2; 1; 3 ] in
  let a = Mempool.create () and b = Mempool.create () in
  List.iter (fun o -> ignore (Mempool.add a o)) ops;
  List.iter (fun o -> ignore (Mempool.add b o)) (List.rev ops);
  let keys m = List.map Operation.key (Mempool.take m ~max:9) in
  Alcotest.(check (list (pair int int)))
    "insertion order does not leak into the batch" (keys a) (keys b);
  (* and a view change must re-propose in the same canonical order *)
  Mempool.requeue_taken a;
  Mempool.requeue_taken b;
  Alcotest.(check (list (pair int int)))
    "requeue is order-insensitive too" (keys a) (keys b)

let test_mempool_snapshot () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2; 3 ];
  ignore (Mempool.take m ~max:1);
  commit m [ op 3 ];
  let snap = Mempool.snapshot m in
  Alcotest.(check (list int)) "snapshot = pooled, uncommitted" [ 2 ]
    (List.map (fun o -> o.Operation.seq) snap);
  Alcotest.(check int) "snapshot does not consume" 1 (Mempool.pending m)

(* ---------- bounded pool: admission control ---------- *)

let test_mempool_capacity () =
  let m = Mempool.create ~config:(Mempool.Config.make ~capacity:3 ()) () in
  List.iter
    (fun s ->
      Alcotest.check admission "under capacity" Mempool.Admitted
        (Mempool.add m (op s)))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "backpressure at capacity" true (Mempool.backpressure m);
  Alcotest.check admission "over capacity" (Mempool.Rejected Mempool.Pool_full)
    (Mempool.add m (op 4));
  Alcotest.check admission "full-pool duplicate still reported Duplicate"
    Mempool.Duplicate (Mempool.add m (op 1));
  (* taking does not release occupancy — the ops are still in flight *)
  ignore (Mempool.take m ~max:2);
  Alcotest.(check int) "occupancy counts taken" 3 (Mempool.occupancy m);
  Alcotest.check admission "still full after take"
    (Mempool.Rejected Mempool.Pool_full) (Mempool.add m (op 4));
  (* commit releases occupancy and lifts the backpressure *)
  commit m [ op 1 ];
  Alcotest.(check bool) "backpressure released" false (Mempool.backpressure m);
  Alcotest.check admission "capacity freed by commit" Mempool.Admitted
    (Mempool.add m (op 4));
  let s = Mempool.stats m in
  Alcotest.(check int) "admitted" 4 s.Mempool.admitted;
  Alcotest.(check int) "rejected_full" 2 s.Mempool.rejected_full;
  Alcotest.(check int) "duplicates" 1 s.Mempool.duplicates;
  Alcotest.(check int) "peak occupancy" 3 s.Mempool.peak_occupancy

let test_mempool_per_client_cap () =
  let m = Mempool.create ~config:(Mempool.Config.make ~per_client_cap:2 ()) () in
  Alcotest.check admission "c1 first" Mempool.Admitted (Mempool.add m (op 1));
  Alcotest.check admission "c1 second" Mempool.Admitted (Mempool.add m (op 2));
  Alcotest.check admission "c1 capped" (Mempool.Rejected Mempool.Per_client_cap)
    (Mempool.add m (op 3));
  Alcotest.check admission "other client unaffected" Mempool.Admitted
    (Mempool.add m (op ~client:2 1));
  (* committing one of client 1's ops releases one slot *)
  commit m [ op 1 ];
  Alcotest.check admission "slot released by commit" Mempool.Admitted
    (Mempool.add m (op 3));
  Alcotest.(check int) "rejected_client_cap" 1
    (Mempool.stats m).Mempool.rejected_client_cap

(* ---------- mark_committed: first commits only ---------- *)

let test_mempool_commit_once () =
  let m = Mempool.create () in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2 ];
  ignore (Mempool.take m ~max:1);
  Alcotest.(check (list int)) "taken and pooled ops commit once, in order"
    [ 2; 1 ]
    (seqs (Mempool.mark_committed m [ op 2; op 1; op 2 ]));
  Alcotest.(check (list int)) "second commit returns nothing" []
    (seqs (Mempool.mark_committed m [ op 1; op 2 ]))

let test_mempool_repeat_commit_accounting () =
  let m =
    Mempool.create ~config:(Mempool.Config.make ~per_client_cap:2 ()) ()
  in
  List.iter (fun s -> ignore (Mempool.add m (op s))) [ 1; 2 ];
  ignore (Mempool.take m ~max:1);
  commit m [ op 1 ];
  let occupancy = Mempool.occupancy m and pending = Mempool.pending m in
  commit m [ op 1 ];
  Alcotest.(check int) "occupancy unchanged" occupancy (Mempool.occupancy m);
  Alcotest.(check int) "pending unchanged" pending (Mempool.pending m);
  (* client 1 holds op 2 only: a repeat commit must not free a second
     slot, so one admission fits under the cap of 2 and the next does not *)
  Alcotest.check admission "one slot free" Mempool.Admitted
    (Mempool.add m (op 4));
  Alcotest.check admission "cap still binds"
    (Mempool.Rejected Mempool.Per_client_cap) (Mempool.add m (op 5))

let test_mempool_commit_unseen () =
  (* a block fetched from the leader carries ops this pool never held *)
  let m = Mempool.create () in
  Alcotest.(check (list int)) "unseen op returned" [ 7 ]
    (seqs (Mempool.mark_committed m [ op 7 ]));
  Alcotest.(check bool) "now committed" true (Mempool.is_committed m (op 7));
  Alcotest.(check int) "no occupancy" 0 (Mempool.occupancy m);
  Alcotest.check admission "cannot enter later" Mempool.Duplicate
    (Mempool.add m (op 7))

(* ---------- bounded pool under pressure: qcheck invariants ---------- *)

(* A random interleaving of adds, takes, commits and requeues against a
   tightly bounded pool. Whatever the schedule:
   - occupancy never exceeds capacity, and stats add up,
   - no client ever holds more than [per_client_cap] in-flight ops,
   - committed keys never re-enter,
   - the batch order stays canonical in the face of rejections. *)

type pool_event =
  | E_add of int * int  (* client, seq *)
  | E_take of int
  | E_commit_taken
  | E_requeue

let pool_event_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun c s -> E_add (c, s)) (int_range 1 4) (int_range 1 12));
        (2, map (fun k -> E_take k) (int_range 1 4));
        (1, return E_commit_taken);
        (1, return E_requeue);
      ])

let pool_script_arb =
  QCheck.make
    ~print:(fun evs ->
      String.concat ";"
        (List.map
           (function
             | E_add (c, s) -> Printf.sprintf "add(%d,%d)" c s
             | E_take k -> Printf.sprintf "take(%d)" k
             | E_commit_taken -> "commit"
             | E_requeue -> "requeue")
           evs))
    QCheck.Gen.(list_size (int_range 1 80) pool_event_gen)

let capacity = 5
let per_client_cap = 2

let run_pool_script script =
  let m =
    Mempool.create
      ~config:(Mempool.Config.make ~capacity ~per_client_cap ())
      ()
  in
  let taken = ref [] (* taken, not yet committed or requeued *)
  and committed = ref [] in
  let inflight_per_client () =
    let tbl = Hashtbl.create 8 in
    let count o =
      let c = o.Operation.client in
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))
    in
    List.iter count (Mempool.snapshot m);
    List.iter count !taken;
    Hashtbl.fold (fun _ v acc -> max v acc) tbl 0
  in
  List.iter
    (fun ev ->
      (match ev with
      | E_add (client, seq) ->
          let o = op ~client seq in
          (match Mempool.add m o with
          | Mempool.Admitted ->
              if List.exists (fun k -> Operation.key o = k) !committed then
                QCheck.Test.fail_report "committed key re-admitted"
          | Mempool.Duplicate | Mempool.Rejected _ -> ())
      | E_take k ->
          let batch = Mempool.take m ~max:k in
          (* canonical batch order survives rejections *)
          let keys = List.map Operation.key batch in
          if keys <> List.sort compare keys then
            QCheck.Test.fail_report "batch not in canonical key order";
          taken := batch @ !taken
      | E_commit_taken ->
          commit m !taken;
          committed := List.map Operation.key !taken @ !committed;
          taken := []
      | E_requeue ->
          Mempool.requeue_taken m;
          taken := []);
      if Mempool.occupancy m > capacity then
        QCheck.Test.fail_reportf "occupancy %d exceeds capacity %d"
          (Mempool.occupancy m) capacity;
      if inflight_per_client () > per_client_cap then
        QCheck.Test.fail_reportf "a client exceeds per_client_cap %d"
          per_client_cap)
    script;
  let s = Mempool.stats m in
  s.Mempool.peak_occupancy <= capacity
  && s.Mempool.admitted >= List.length !committed

let qcheck_pool_pressure =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"bounded pool invariants under pressure"
       pool_script_arb run_pool_script)

(* ---------- cluster measurement plumbing ---------- *)

module Cl = Cluster.Make (Marlin_runtime.Registry.Chained_marlin)

let test_cluster_windows () =
  let params = { (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients:16) 1) with Cluster.seed = 5 } in
  let t = Cl.create params in
  Cl.run t ~until:4.0;
  let all = Cl.committed_ops_in t ~replica:0 ~since:0.0 ~until:4.0 in
  let first = Cl.committed_ops_in t ~replica:0 ~since:0.0 ~until:2.0 in
  let second = Cl.committed_ops_in t ~replica:0 ~since:2.0 ~until:4.0 in
  Alcotest.(check bool) "ops committed" true (all > 0);
  Alcotest.(check bool) "windows partition (boundary included once at most)" true
    (abs (all - (first + second)) <= 1);
  Alcotest.(check bool) "latency samples collected" true
    (List.length (Cl.latencies_in t ~since:0.0 ~until:4.0) > 0);
  Alcotest.(check bool) "all latencies positive" true
    (List.for_all (fun l -> l > 0.) (Cl.latencies_in t ~since:0.0 ~until:4.0))

let test_cluster_deterministic () =
  let params = { (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients:32) 1) with Cluster.seed = 123 } in
  let run () =
    let t = Cl.create params in
    Cl.run t ~until:3.0;
    Cl.total_executed t ~replica:2
  in
  Alcotest.(check int) "same seed, same history" (run ()) (run ());
  let other =
    let t = Cl.create { params with Cluster.seed = 124 } in
    Cl.run t ~until:3.0;
    Cl.total_executed t ~replica:2
  in
  (* different seed jitters arrivals; histories almost surely differ *)
  Alcotest.(check bool) "different seed differs" true (other <> run () || other > 0)

let test_cluster_crash_plumbing () =
  let params = { (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients:16) 1) with Cluster.seed = 6 } in
  let t = Cl.create params in
  Cl.crash t ~at:1.0 3;
  Cl.run t ~until:4.0;
  Alcotest.(check bool) "cluster survives one crash" true
    (Cl.total_executed t ~replica:0 > 0);
  Alcotest.(check bool) "agreement among the living" true (Cl.check_agreement t)

(* ---------- closed-loop completion latencies, pinned ---------- *)

module Scenario = Marlin_faults.Scenario
module Netsim = Marlin_sim.Netsim
module Sim = Marlin_sim.Sim

(* Eight closed-loop clients on chained Marlin for 6 s under one fault
   shape. A client completes at the instant its (f+1)-th distinct reply
   arrives, so these numbers pin the whole reply path: which replies are
   accepted, their arrival times, retries and re-replies. Returns the
   number of completions and a digest of every latency, bit for bit. *)
let completion_latencies ~f shape =
  let n = (3 * f) + 1 in
  let params =
    { (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients:8) f)
      with Cluster.seed = 11 }
  in
  let t = Cl.create params in
  let steps =
    match shape with
    | `Drop -> [ Scenario.at 0.5 (Scenario.Drop_fraction 0.1); Scenario.at 3.0 Scenario.Heal ]
    | `Duplicate -> [ Scenario.at 0.5 (Scenario.Duplicate 0.3) ]
    | `Partition ->
        let low, high = List.partition (fun i -> i < n / 2) (List.init n Fun.id) in
        [ Scenario.at 1.0 (Scenario.Partition [ low; high ]); Scenario.at 2.0 Scenario.Heal ]
    | `Crash_f -> List.init f (fun i -> Scenario.at 1.0 (Scenario.Crash (n - 1 - i)))
    | `Reply_loss ->
        (* every reply to client 0 is lost in [1, 2) s: it retries 2.5 s
           after submitting and the replicas re-reply to the duplicate *)
        Netsim.Fault.set_link_filter (Cl.net t)
          (Some
             (fun ~src:_ ~dst (m : Message.t) ->
               match m.Message.payload with
               | Message.Client_reply _ when dst = n ->
                   let now = Sim.now (Cl.sim t) in
                   not (now >= 1.0 && now < 2.0)
               | _ -> true));
        []
  in
  Cl.apply_scenario t
    (Scenario.make ~name:"pinned" ~info:"" ~f ~steps ~settle_at:3.0 ~run_for:6.0 ());
  Cl.run t ~until:6.0;
  let lat = Cl.latencies_in t ~since:0. ~until:6.0 in
  ( List.length lat,
    Digest.to_hex
      (Digest.string (String.concat "," (List.map (Printf.sprintf "%h") lat))) )

let test_pinned_latencies () =
  List.iter
    (fun (f, shape, name, count, digest) ->
      let got_count, got_digest = completion_latencies ~f shape in
      let label = Printf.sprintf "n=%d %s" ((3 * f) + 1) name in
      Alcotest.(check int) (label ^ ": completions") count got_count;
      Alcotest.(check string) (label ^ ": latencies") digest got_digest)
    [
      (1, `Drop, "drop", 94, "1a870b12b6603c6110fb5c976502d34d");
      (1, `Duplicate, "duplicate", 137, "c0f1f1ada14c1e25e39b45c451354239");
      (1, `Partition, "partition", 65, "4f12034e8ea945550afce654386264ce");
      (1, `Crash_f, "crash f", 111, "87db66f11e3a724a7830efcf084fe8e2");
      (1, `Reply_loss, "reply loss", 131, "60c4a6246cd608d72a2d7360c15b08c7");
      (2, `Drop, "drop", 64, "2415361a7551084690a976eaafafcf97");
      (2, `Duplicate, "duplicate", 137, "0e24321c06018defaf04647146a3d591");
      (2, `Partition, "partition", 119, "1879af6e35703770a093f233d2053614");
      (2, `Crash_f, "crash f", 110, "0bd2f9e9b5da1d1962b6ee32afc49fba");
      (2, `Reply_loss, "reply loss", 123, "ccdbb36416ce0e537cb83db5b6378aa7");
    ]

(* ---------- experiment drivers ---------- *)

let test_peak_selection () =
  let mk clients throughput =
    {
      Experiment.clients;
      throughput;
      latency = Marlin_analysis.Stats.summarize [];
      agreement = true;
      executed = 0;
    }
  in
  let results = [ mk 4 100.; mk 16 400.; mk 64 380. ] in
  let best, cap = Experiment.peak results in
  Alcotest.(check int) "peak picks the max" 16 best.Experiment.clients;
  Alcotest.(check bool) "no cap always qualifies" true (cap = `Within_cap);
  (* an unmeetable cap falls back to the overall max, and says so *)
  let fallback, cap' = Experiment.peak ~latency_cap:(-1.0) results in
  Alcotest.(check int) "fallback is still the max" 16 fallback.Experiment.clients;
  Alcotest.(check bool) "fallback is flagged" true (cap' = `Fallback);
  Alcotest.check_raises "empty peak raises"
    (Invalid_argument "Experiment.peak: no results") (fun () ->
      ignore (Experiment.peak []))

let test_sweep_shape () =
  let marlin : Marlin_core.Consensus_intf.protocol =
    (module Marlin_runtime.Registry.Chained_marlin)
  in
  let results =
    Experiment.sweep marlin
      ~params:{ (Cluster.params_for_f 1) with Cluster.seed = 2 }
      ~warmup:0.5 ~duration:1.5 ~client_counts:[ 8; 32 ]
  in
  Alcotest.(check (list int)) "client counts preserved" [ 8; 32 ]
    (List.map (fun r -> r.Experiment.clients) results)

let suite =
  [
    ("mempool FIFO", `Quick, test_mempool_fifo);
    ("mempool dedup", `Quick, test_mempool_dedup);
    ("mempool commit clears", `Quick, test_mempool_commit_clears);
    ("mempool requeues orphaned ops", `Quick, test_mempool_requeue_taken);
    ("mempool batches are canonical", `Quick, test_mempool_batch_canonical);
    ("mempool snapshot", `Quick, test_mempool_snapshot);
    ("mempool capacity bound", `Quick, test_mempool_capacity);
    ("mempool per-client cap", `Quick, test_mempool_per_client_cap);
    qcheck_pool_pressure;
    ("cluster measurement windows", `Quick, test_cluster_windows);
    ("cluster determinism", `Quick, test_cluster_deterministic);
    ("cluster crash plumbing", `Quick, test_cluster_crash_plumbing);
    ("closed-loop latencies pinned", `Quick, test_pinned_latencies);
    ("experiment peak selection", `Quick, test_peak_selection);
    ("experiment sweep shape", `Quick, test_sweep_shape);
    ("mempool commits each op once", `Quick, test_mempool_commit_once);
    ("mempool repeat commit keeps accounting", `Quick,
      test_mempool_repeat_commit_accounting);
    ("mempool commits unseen ops", `Quick, test_mempool_commit_unseen);
  ]

let () = Alcotest.run "runtime" [ ("runtime", suite) ]
