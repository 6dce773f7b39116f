module Stats = Marlin_analysis.Stats
module Message = Marlin_types.Message

type dir_counter = { mutable msgs : int; mutable bytes : int; mutable auths : int }

type t = {
  replica : int;
  sent : dir_counter array; (* by Message.kind_index *)
  recv : dir_counter array;
  mutable proposals : int;
  mutable qcs : int;
  mutable blocks_committed : int;
  mutable ops_committed : int;
  mutable view_changes : int;
  mutable timer_fires : int;
  mutable ops_admitted : int;
  mutable ops_duplicate : int;
  mutable ops_rejected_full : int;
  mutable ops_rejected_client_cap : int;
  mutable mempool_peak : int;
  first_seen : (int, float) Hashtbl.t;  (* height -> first proposal sighting *)
  commit_samples : Stats.Reservoir.t;
  mutable vc_open : float option;
  vc_samples : Stats.Reservoir.t;
}

let zero () = { msgs = 0; bytes = 0; auths = 0 }

(* Every slot starts as [unseen], which nothing writes: [bump] gives a kind
   its own counter on first use, so a replica holds counters only for the
   kinds it sent or received. *)
let unseen = zero ()

let create ~replica =
  {
    replica;
    sent = Array.make Message.kind_count unseen;
    recv = Array.make Message.kind_count unseen;
    proposals = 0;
    qcs = 0;
    blocks_committed = 0;
    ops_committed = 0;
    view_changes = 0;
    timer_fires = 0;
    ops_admitted = 0;
    ops_duplicate = 0;
    ops_rejected_full = 0;
    ops_rejected_client_cap = 0;
    mempool_peak = 0;
    first_seen = Hashtbl.create 64;
    (* bounded: a --full run commits millions of blocks; the reservoir
       keeps memory flat while the percentiles stay representative *)
    commit_samples = Stats.Reservoir.create ~capacity:4096 ();
    vc_open = None;
    vc_samples = Stats.Reservoir.create ~capacity:1024 ();
  }

let replica t = t.replica

let bump table i ~size ~auths =
  if table.(i) == unseen then table.(i) <- zero ();
  let c = table.(i) in
  c.msgs <- c.msgs + 1;
  c.bytes <- c.bytes + size;
  c.auths <- c.auths + auths

let count_sent t ~size m =
  bump t.sent (Message.kind_index m) ~size ~auths:(Message.authenticators m)

let count_recv t ~size m =
  bump t.recv (Message.kind_index m) ~size ~auths:(Message.authenticators m)

(* kind indices in name order *)
let by_name =
  List.init Message.kind_count Fun.id
  |> List.sort (fun a b ->
         String.compare (Message.kind_name a) (Message.kind_name b))

let kinds t =
  List.filter_map
    (fun i ->
      if t.sent.(i) != unseen || t.recv.(i) != unseen then
        Some (Message.kind_name i)
      else None)
    by_name

let counter table ~kind =
  match
    List.find_opt (fun i -> String.equal (Message.kind_name i) kind) by_name
  with
  | Some i when table.(i) != unseen -> table.(i)
  | Some _ | None -> zero ()

let sent t ~kind = counter t.sent ~kind
let recv t ~kind = counter t.recv ~kind

let is_consensus_message m = Message.kind_index m < Message.consensus_kinds

let consensus_sent t =
  let acc = zero () in
  for i = 0 to Message.consensus_kinds - 1 do
    let c = t.sent.(i) in
    acc.msgs <- acc.msgs + c.msgs;
    acc.bytes <- acc.bytes + c.bytes;
    acc.auths <- acc.auths + c.auths
  done;
  acc

(* -- protocol events -- *)

let note_propose t = t.proposals <- t.proposals + 1

let note_proposal_seen t ~height ~time =
  if not (Hashtbl.mem t.first_seen height) then
    Hashtbl.replace t.first_seen height time

let note_qc t = t.qcs <- t.qcs + 1

let note_commit t ~height ~blocks ~ops ~time =
  t.blocks_committed <- t.blocks_committed + blocks;
  t.ops_committed <- t.ops_committed + ops;
  let closed =
    Hashtbl.fold
      (fun h t0 acc -> if h <= height then (h, t0) :: acc else acc)
      t.first_seen []
    (* the reservoir's admission stream is order-sensitive; feed it in
       height order, not hashtable order *)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (h, t0) ->
      Hashtbl.remove t.first_seen h;
      Stats.Reservoir.add t.commit_samples (time -. t0))
    closed;
  match t.vc_open with
  | Some t0 ->
      Stats.Reservoir.add t.vc_samples (time -. t0);
      t.vc_open <- None
  | None -> ()

let note_view_change_enter t ~time =
  t.view_changes <- t.view_changes + 1;
  if t.vc_open = None then t.vc_open <- Some time

let note_view_change_exit t ~time =
  match t.vc_open with
  | Some t0 ->
      Stats.Reservoir.add t.vc_samples (time -. t0);
      t.vc_open <- None
  | None -> ()

let note_timer_fired t = t.timer_fires <- t.timer_fires + 1

let note_admission t result ~occupancy =
  (match result with
  | `Admitted -> t.ops_admitted <- t.ops_admitted + 1
  | `Duplicate -> t.ops_duplicate <- t.ops_duplicate + 1
  | `Rejected_full -> t.ops_rejected_full <- t.ops_rejected_full + 1
  | `Rejected_client_cap ->
      t.ops_rejected_client_cap <- t.ops_rejected_client_cap + 1);
  if occupancy > t.mempool_peak then t.mempool_peak <- occupancy

let proposals t = t.proposals
let qcs t = t.qcs
let blocks_committed t = t.blocks_committed
let ops_committed t = t.ops_committed
let view_changes t = t.view_changes
let timer_fires t = t.timer_fires
let ops_admitted t = t.ops_admitted
let ops_duplicate t = t.ops_duplicate
let ops_rejected_full t = t.ops_rejected_full
let ops_rejected_client_cap t = t.ops_rejected_client_cap
let mempool_peak_occupancy t = t.mempool_peak

let commit_latency t = Stats.Reservoir.summarize t.commit_samples
let vc_latency t = Stats.Reservoir.summarize t.vc_samples
