(* ~400 MB/s sequential writes (datacenter SSD), 20us per batched write,
   checkpoint every 5000 blocks costing ~50ms — magnitudes consistent with
   LevelDB compaction stalls. *)
let write_bandwidth = 4e8
let write_overhead = 20e-6
let checkpoint_interval = 5000
let checkpoint_cost = 0.050

type t = { mutable blocks : int; mutable checkpoints : int }

let create () = { blocks = 0; checkpoints = 0 }

let commit_cost t ~bytes =
  t.blocks <- t.blocks + 1;
  let base = write_overhead +. (float_of_int bytes /. write_bandwidth) in
  if t.blocks mod checkpoint_interval = 0 then begin
    t.checkpoints <- t.checkpoints + 1;
    base +. checkpoint_cost
  end
  else base

let blocks_written t = t.blocks
let checkpoints_run t = t.checkpoints
