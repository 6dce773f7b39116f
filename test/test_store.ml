(* Tests for the simulated disk cost model: per-block write costs and
   checkpoint pauses on the testbed's fixed disk. *)

module Sim_disk = Marlin_sim.Sim_disk

(* ---------- sim disk ---------- *)

let test_sim_disk_costs () =
  let d = Sim_disk.create () in
  let costs = List.init 10_000 (fun _ -> Sim_disk.commit_cost d ~bytes:1000) in
  Alcotest.(check int) "blocks counted" 10_000 (Sim_disk.blocks_written d);
  Alcotest.(check int) "two checkpoints at interval 5000" 2
    (Sim_disk.checkpoints_run d);
  let base = 20e-6 +. (1000. /. 4e8) in
  List.iteri
    (fun i c ->
      if (i + 1) mod 5000 = 0 then
        Alcotest.(check (float 1e-12)) "checkpoint block pays the pause"
          (base +. 0.050) c
      else Alcotest.(check (float 1e-12)) "ordinary block pays base" base c)
    costs

let test_sim_disk_default () =
  let d = Sim_disk.create () in
  let c = Sim_disk.commit_cost d ~bytes:60_000 in
  Alcotest.(check bool) "cost positive and sub-millisecond" true
    (c > 0. && c < 1e-3)

let suite =
  [
    ("sim disk costs & checkpoints", `Quick, test_sim_disk_costs);
    ("sim disk defaults", `Quick, test_sim_disk_default);
  ]

let () = Alcotest.run "store" [ ("store", suite) ]
