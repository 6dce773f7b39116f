(* Quickstart: a four-replica Marlin cluster in the simulator.

     dune exec examples/quickstart.exe

   Spins up n = 4 replicas (f = 1) running chained Marlin over the
   simulated network (40 ms one-way latency, 200 Mbps links, LevelDB-like
   disk costs), drives it with 64 closed-loop clients for five simulated
   seconds, and prints what the cluster did. *)

module Cluster = Marlin_runtime.Cluster
module P = Marlin_runtime.Registry.Chained_marlin
module Cl = Cluster.Make (P)
module Stats = Marlin_analysis.Stats

let () =
  let params = { (Cluster.params_for_f ~workload:(Marlin_workload.Workload.closed_loop ~clients:64) 1) with Cluster.seed = 42 } in
  Printf.printf "Starting %d replicas (f = %d) with %d closed-loop clients...\n"
    params.Cluster.n params.Cluster.f
    (Marlin_workload.Workload.closed_clients params.Cluster.workload);

  let cluster = Cl.create params in
  Cl.run cluster ~until:5.0;

  let executed = Cl.total_executed cluster ~replica:0 in
  let latencies = Cl.latencies_in cluster ~since:1.0 ~until:5.0 in
  let summary = Stats.summarize latencies in

  Printf.printf "\nAfter 5 simulated seconds:\n";
  Printf.printf "  operations executed:   %d\n" executed;
  Printf.printf "  steady throughput:     %.0f ops/s\n"
    (float_of_int (Cl.committed_ops_in cluster ~replica:0 ~since:1.0 ~until:5.0)
    /. 4.0);
  Printf.printf "  client latency:        mean %.0f ms, p95 %.0f ms\n"
    (summary.Stats.mean *. 1000.) (summary.Stats.p95 *. 1000.);
  let agree = Cl.check_agreement cluster in
  Printf.printf "  replicas agree:        %b\n" agree;
  let proto = Cl.protocol cluster 0 in
  Printf.printf "  view:                  %d (no view change was needed)\n"
    (P.current_view proto);
  Printf.printf "  committed chain height: %d\n"
    (P.committed_head proto).Marlin_types.Block.height;
  Printf.printf "\nEvery replica executed the same operations in the same order.\n";
  if not agree then exit 1
