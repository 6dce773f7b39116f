(* Watching Marlin replace a failed leader.

     dune exec examples/view_change_demo.exe

   Runs a four-replica cluster under client load in the simulator, crashes
   the leader at t = 2 s, and prints the timeline: commits stall, view
   timers fire, VIEW-CHANGE messages converge on the next leader, the
   happy path combines them into a prepareQC, and commits resume — about
   200 simulated milliseconds after the first timeout. *)

open Marlin_types
module Cluster = Marlin_runtime.Cluster
module P = Marlin_runtime.Registry.Marlin
module Cl = Cluster.Make (P)
module Sim = Marlin_sim.Sim
module Netsim = Marlin_sim.Netsim

let () =
  let params = { (Cluster.params_for_f ~workload:(Marlin_workload.Workload.closed_loop ~clients:16) 1) with Cluster.seed = 9 } in
  let cluster = Cl.create params in
  let sim = Cl.sim cluster in
  let net = Cl.net cluster in

  (* Narrate the interesting traffic around the crash. *)
  let last_noted = ref "" in
  Netsim.on_send net
    (Some
       (fun ~src ~dst ~size:_ m ->
         let now = Sim.now sim in
         if now > 1.95 then
           let note =
             match m.Message.payload with
             | Message.View_change _ ->
                 Some
                   (Printf.sprintf "replica %d sends VIEW-CHANGE to new leader %d"
                      src dst)
             | Message.Pre_prepare _ -> Some "PRE-PREPARE broadcast (unhappy path)"
             | Message.Propose _ when m.Message.view > 0 && !last_noted <> "propose"
               ->
                 last_noted := "propose";
                 Some
                   (Printf.sprintf
                      "new leader %d proposes in view %d (happy path: no \
                       PRE-PREPARE needed)"
                      src m.Message.view)
             | _ -> None
           in
           match note with
           | Some text when text <> !last_noted ->
               if text <> "propose" then last_noted := text;
               Printf.printf "  %.3fs  %s\n" now text
           | _ -> ()));

  Printf.printf "t=0.000s  cluster starts; replica 0 leads view 0\n";
  Cl.run cluster ~until:2.0;
  Printf.printf "t=2.000s  %d ops committed so far; CRASHING the leader\n"
    (Cl.total_executed cluster ~replica:1);
  Cl.crash cluster ~at:2.0 0;
  Cl.run cluster ~until:8.0;

  let recovered =
    match Cl.view_change_start cluster with
    | Some s -> (
        Printf.printf "  %.3fs  first replica times out and starts the view change\n" s;
        match Cl.first_commit_after cluster ~replica:1 s with
        | Some c ->
            Printf.printf "  %.3fs  first block commits in the new view (+%.0f ms)\n"
              c ((c -. s) *. 1000.);
            true
        | None ->
            Printf.printf "  (no commit after the view change!)\n";
            false)
    | None ->
        Printf.printf "  (no view change was recorded!)\n";
        false
  in
  let agree = Cl.check_agreement cluster in
  Printf.printf "t=8.000s  %d ops committed; replicas agree: %b; view is now %d\n"
    (Cl.total_executed cluster ~replica:1)
    agree
    (P.current_view (Cl.protocol cluster 1));
  if not (recovered && agree) then exit 1
