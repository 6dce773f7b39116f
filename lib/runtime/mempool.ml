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

(* [seen] keeps each known key's status in its slot's one byte; an unseen
   key has no slot *)
module Status = struct
  let unseen = -1
  let in_pool = 0
  let taken = 1
  let committed = 2
end

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

(* In-flight operations this pool is responsible for: queued and not yet
   committed, plus taken into a block and not yet committed. *)
let occupancy t = Queue.length t.queue - t.stale + Pair_tbl.length t.taken

let backpressure t = occupancy t >= t.config.Config.capacity

(* One probe of [held]. An in-flight op's client always has a count, and
   a count that reaches 0 is removed, so [held] stays bounded by the
   in-flight clients. *)
let decr_held t client =
  let h = Pair_tbl.slot t.held client 0 in
  match Pair_tbl.get t.held h with
  | 1 -> Pair_tbl.remove_slot t.held h
  | k -> Pair_tbl.set t.held h (k - 1)

(* The status at [s], the answer of one probe of [seen]. *)
let status_at t s = if s < 0 then Status.unseen else Pair_tbl.get t.seen s

(* One probe of [seen] and one of [held]; the insert hints they answer
   stay valid because nothing else changes either table in between. *)
let add t (op : Operation.t) =
  let s = Pair_tbl.slot t.seen op.client op.seq in
  if s >= 0 then begin
    t.s_duplicates <- t.s_duplicates + 1;
    Duplicate
  end
  else if occupancy t >= t.config.Config.capacity then begin
    t.s_rejected_full <- t.s_rejected_full + 1;
    Rejected Pool_full
  end
  else
    let h = Pair_tbl.slot t.held op.client 0 in
    let held = if h >= 0 then Pair_tbl.get t.held h else 0 in
    if held >= t.config.Config.per_client_cap then begin
      t.s_rejected_client_cap <- t.s_rejected_client_cap + 1;
      Rejected Per_client_cap
    end
    else begin
      Pair_tbl.insert t.seen ~hint:s op.client op.seq Status.in_pool;
      Queue.push op t.queue;
      if h >= 0 then Pair_tbl.set t.held h (held + 1)
      else Pair_tbl.insert t.held ~hint:h op.client 0 1;
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
      let s = Pair_tbl.slot t.seen op.client op.seq in
      let status = status_at t s in
      if status = Status.in_pool then begin
        Pair_tbl.set t.seen s Status.taken;
        Pair_tbl.replace t.taken op.client op.seq op;
        go (k - 1) (op :: acc)
      end
      else begin
        if status = Status.committed then t.stale <- t.stale - 1;
        go k acc
      end
  in
  sort_by_key (go max [])

(* One probe of [seen] per op: a repeat commit stops there, a first
   commit writes the status at the probed slot (or inserts at its hint),
   and only a taken op touches [taken]. *)
let mark_committed t ops =
  List.filter
    (fun (op : Operation.t) ->
      let s = Pair_tbl.slot t.seen op.client op.seq in
      if s < 0 then begin
        Pair_tbl.insert t.seen ~hint:s op.client op.seq Status.committed;
        true
      end
      else
        let status = Pair_tbl.get t.seen s in
        status <> Status.committed
        && begin
             if status = Status.in_pool then t.stale <- t.stale + 1
             else Pair_tbl.remove t.taken op.client op.seq;
             decr_held t op.client;
             Pair_tbl.set t.seen s Status.committed;
             true
           end)
    ops

let pending t = Queue.length t.queue - t.stale

let is_committed t (op : Operation.t) =
  status_at t (Pair_tbl.slot t.seen op.client op.seq) = Status.committed

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
    (fun (op : Operation.t) ->
      Pair_tbl.replace t.seen op.client op.seq Status.in_pool;
      Queue.push op t.queue)
    ops

let snapshot t =
  Queue.fold
    (fun acc (op : Operation.t) ->
      if status_at t (Pair_tbl.slot t.seen op.client op.seq) = Status.in_pool then
        op :: acc
      else acc)
    [] t.queue
  |> List.rev
