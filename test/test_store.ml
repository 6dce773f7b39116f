(* Tests for the simulated disk cost model: per-batch write costs,
   checkpoint pauses and config validation. *)

module Sim_disk = Marlin_sim.Sim_disk
open Test_support.Hostile

(* ---------- sim disk ---------- *)

let test_sim_disk_costs () =
  let config =
    {
      Sim_disk.write_bandwidth = 1e6;
      write_overhead = 1e-4;
      checkpoint_interval = 10;
      checkpoint_cost = 0.5;
    }
  in
  let d = Sim_disk.create config in
  let costs = List.init 20 (fun _ -> Sim_disk.commit_cost d ~bytes:1000) in
  Alcotest.(check int) "blocks counted" 20 (Sim_disk.blocks_written d);
  Alcotest.(check int) "two checkpoints at interval 10" 2 (Sim_disk.checkpoints_run d);
  let base = 1e-4 +. (1000. /. 1e6) in
  List.iteri
    (fun i c ->
      if (i + 1) mod 10 = 0 then
        Alcotest.(check (float 1e-9)) "checkpoint block pays the pause" (base +. 0.5) c
      else Alcotest.(check (float 1e-9)) "ordinary block pays base" base c)
    costs

let test_sim_disk_default () =
  let d = Sim_disk.create Sim_disk.default_config in
  let c = Sim_disk.commit_cost d ~bytes:60_000 in
  Alcotest.(check bool) "cost positive and sub-millisecond" true
    (c > 0. && c < 1e-3)

let test_sim_disk_rejects_config () =
  let c = Sim_disk.default_config in
  List.iter
    (fun (field, config) ->
      Alcotest.(check bool)
        (field ^ " rejected by name") true
        (rejected_naming field (fun () -> Sim_disk.create config)))
    [
      ("write_bandwidth", { c with write_bandwidth = 0. });
      ("checkpoint_interval", { c with checkpoint_interval = -1 });
    ]

let qcheck_sim_disk_config =
  let open QCheck in
  Test.make ~count:300 ~name:"Sim_disk.create rejects exactly the invalid configs"
    (make
       ~print:(fun ((write_bandwidth, write_overhead, checkpoint_cost), interval) ->
         Printf.sprintf
           "write_bandwidth=%g write_overhead=%g checkpoint_cost=%g \
            checkpoint_interval=%d"
           write_bandwidth write_overhead checkpoint_cost interval)
       Gen.(pair (triple edge_float edge_float edge_float) (int_range (-2) 3)))
    (fun ((write_bandwidth, write_overhead, checkpoint_cost), checkpoint_interval) ->
      accepts_iff
        (write_bandwidth > 0. && finite_nonneg write_overhead
        && finite_nonneg checkpoint_cost && checkpoint_interval >= 0)
        (fun () ->
          Sim_disk.create
            { Sim_disk.write_bandwidth; write_overhead; checkpoint_interval;
              checkpoint_cost }))

let suite =
  [
    ("sim disk costs & checkpoints", `Quick, test_sim_disk_costs);
    ("sim disk defaults", `Quick, test_sim_disk_default);
    ("Sim_disk.create rejects invalid config, naming the field", `Quick,
     test_sim_disk_rejects_config);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_sim_disk_config ]

let () = Alcotest.run "store" [ ("store", suite) ]
