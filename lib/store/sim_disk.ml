type config = {
  write_bandwidth : float;
  write_overhead : float;
  checkpoint_interval : int;
  checkpoint_cost : float;
}

(* ~400 MB/s sequential writes (datacenter SSD), 20us per batched write,
   checkpoint every 5000 blocks costing ~50ms — magnitudes consistent with
   LevelDB compaction stalls. *)
let default_config =
  {
    write_bandwidth = 4e8;
    write_overhead = 20e-6;
    checkpoint_interval = 5000;
    checkpoint_cost = 0.050;
  }

type t = { config : config; mutable blocks : int; mutable checkpoints : int }

let create config =
  let reject field need =
    invalid_arg (Printf.sprintf "Sim_disk.create: %s must be %s" field need)
  in
  List.iter
    (fun (field, x) ->
      if not (Float.is_finite x && x >= 0.) then reject field "finite and >= 0")
    [
      ("write_overhead", config.write_overhead);
      ("checkpoint_cost", config.checkpoint_cost);
    ];
  (* NaN fails the comparison too; infinity makes writes free *)
  if not (config.write_bandwidth > 0.) then reject "write_bandwidth" "> 0";
  if config.checkpoint_interval < 0 then reject "checkpoint_interval" ">= 0";
  { config; blocks = 0; checkpoints = 0 }

let commit_cost t ~bytes =
  t.blocks <- t.blocks + 1;
  let base =
    t.config.write_overhead +. (float_of_int bytes /. t.config.write_bandwidth)
  in
  if t.config.checkpoint_interval > 0 && t.blocks mod t.config.checkpoint_interval = 0
  then begin
    t.checkpoints <- t.checkpoints + 1;
    base +. t.config.checkpoint_cost
  end
  else base

let blocks_written t = t.blocks
let checkpoints_run t = t.checkpoints
