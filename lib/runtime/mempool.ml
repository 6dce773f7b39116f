open Marlin_types

module Config = struct
  type t = { capacity : int; per_client_cap : int }

  let unbounded = { capacity = max_int; per_client_cap = max_int }

  let make ?(capacity = max_int) ?(per_client_cap = max_int) () =
    if capacity < 1 then
      invalid_arg "Mempool.Config.make: capacity must be >= 1";
    if per_client_cap < 1 then
      invalid_arg "Mempool.Config.make: per_client_cap must be >= 1";
    { capacity; per_client_cap }

  let capacity t = t.capacity
  let per_client_cap t = t.per_client_cap
end

type reject_reason = Pool_full | Per_client_cap
type admission = Admitted | Duplicate | Rejected of reject_reason

type stats = {
  admitted : int;
  duplicates : int;
  rejected_full : int;
  rejected_client_cap : int;
  peak_occupancy : int;
}

(* [seen] keeps each known key's status in its slot's one byte *)
type status = Unseen | In_pool | Taken | Committed

type t = {
  config : Config.t;
  queue : Operation.t Queue.t;
  seen : int Pair_tbl.t; (* status byte by (client, seq) *)
  taken : Operation.t Pair_tbl.t; (* taken, not yet committed *)
  held : int Pair_tbl.t;
      (* in-flight (In_pool + Taken) ops by (client, 0): one count per client *)
  mutable stale : int; (* committed ops still sitting in [queue] *)
  mutable s_admitted : int;
  mutable s_duplicates : int;
  mutable s_rejected_full : int;
  mutable s_rejected_client_cap : int;
  mutable s_peak_occupancy : int;
}

let no_op = Operation.make ~client:0 ~seq:0 ~body:""

let create ?(config = Config.unbounded) () =
  {
    config;
    queue = Queue.create ();
    seen = Pair_tbl.create_bytes 16;
    taken = Pair_tbl.create ~dummy:no_op 8;
    held = Pair_tbl.create ~dummy:0 8;
    stale = 0;
    s_admitted = 0;
    s_duplicates = 0;
    s_rejected_full = 0;
    s_rejected_client_cap = 0;
    s_peak_occupancy = 0;
  }

let config t = t.config

(* In-flight operations this pool is responsible for: queued and not yet
   committed, plus taken into a block and not yet committed. *)
let occupancy t = Queue.length t.queue - t.stale + Pair_tbl.length t.taken

let backpressure t = occupancy t >= t.config.Config.capacity

let held_by t client =
  match Pair_tbl.find t.held client 0 with k -> k | exception Not_found -> 0

let decr_held t client =
  match held_by t client - 1 with
  | 0 -> Pair_tbl.remove t.held client 0 (* keep [held] bounded by in-flight *)
  | k -> Pair_tbl.replace t.held client 0 k

let status t (op : Operation.t) =
  match Pair_tbl.find t.seen op.client op.seq with
  | 0 -> In_pool
  | 1 -> Taken
  | _ -> Committed
  | exception Not_found -> Unseen

let set_status t (op : Operation.t) = function
  | Unseen -> Pair_tbl.remove t.seen op.client op.seq
  | In_pool -> Pair_tbl.replace t.seen op.client op.seq 0
  | Taken -> Pair_tbl.replace t.seen op.client op.seq 1
  | Committed -> Pair_tbl.replace t.seen op.client op.seq 2

let add t op =
  if status t op <> Unseen then begin
    t.s_duplicates <- t.s_duplicates + 1;
    Duplicate
  end
  else if occupancy t >= t.config.Config.capacity then begin
    t.s_rejected_full <- t.s_rejected_full + 1;
    Rejected Pool_full
  end
  else
    let held = held_by t op.Operation.client in
    if held >= t.config.Config.per_client_cap then begin
      t.s_rejected_client_cap <- t.s_rejected_client_cap + 1;
      Rejected Per_client_cap
    end
    else begin
      set_status t op In_pool;
      Queue.push op t.queue;
      Pair_tbl.replace t.held op.Operation.client 0 (held + 1);
      t.s_admitted <- t.s_admitted + 1;
      t.s_peak_occupancy <- Int.max t.s_peak_occupancy (occupancy t);
      Admitted
    end

let stats t =
  {
    admitted = t.s_admitted;
    duplicates = t.s_duplicates;
    rejected_full = t.s_rejected_full;
    rejected_client_cap = t.s_rejected_client_cap;
    peak_occupancy = t.s_peak_occupancy;
  }

(* Batches must be canonical: proposals feed block digests, so any
   replica-local ordering artifact (arrival interleaving, hashtable
   iteration) would make otherwise-identical runs diverge. *)
let sort_by_key ops =
  List.sort
    (fun (a : Operation.t) (b : Operation.t) ->
      match Int.compare a.client b.client with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
    ops

let take t ~max =
  let rec go k acc =
    if k = 0 || Queue.is_empty t.queue then List.rev acc
    else
      let op = Queue.pop t.queue in
      match status t op with
      | In_pool ->
          set_status t op Taken;
          Pair_tbl.replace t.taken op.client op.seq op;
          go (k - 1) (op :: acc)
      | Committed ->
          t.stale <- t.stale - 1;
          go k acc
      | Taken | Unseen -> go k acc
  in
  sort_by_key (go max [])

(* A repeat commit costs one [seen] lookup; a first commit also writes
   the status in place, and only a [Taken] op touches [taken]. *)
let mark_committed t ops =
  List.filter
    (fun (op : Operation.t) ->
      match status t op with
      | Committed -> false
      | Unseen ->
          set_status t op Committed;
          true
      | (In_pool | Taken) as s ->
          if s = In_pool then t.stale <- t.stale + 1
          else Pair_tbl.remove t.taken op.client op.seq;
          decr_held t op.client;
          set_status t op Committed;
          true)
    ops

let pending t = Queue.length t.queue - t.stale
let is_committed t op = status t op = Committed

let requeue_taken t =
  (* the fold's order is a hashtable artifact; sort so the re-queued ops
     re-enter in canonical key order on every replica. Requeued ops were
     already admitted, so neither capacity nor per-client caps re-apply:
     occupancy is unchanged by In_pool <-> Taken moves. *)
  let ops =
    Pair_tbl.fold (fun _ _ op acc -> op :: acc) t.taken [] |> sort_by_key
  in
  Pair_tbl.reset t.taken;
  List.iter
    (fun op ->
      set_status t op In_pool;
      Queue.push op t.queue)
    ops

let snapshot t =
  Queue.fold
    (fun acc op -> if status t op = In_pool then op :: acc else acc)
    [] t.queue
  |> List.rev
