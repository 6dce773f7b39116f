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

type status = In_pool | Taken | Committed

module Key_tbl = Operation.Key_tbl

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash c = c land max_int
end)

type t = {
  config : Config.t;
  queue : Operation.t Queue.t;
  seen : status Key_tbl.t;
  taken : Operation.t Key_tbl.t; (* taken, not yet committed *)
  held : int Int_tbl.t; (* in-flight (In_pool + Taken) ops per client *)
  mutable stale : int; (* committed ops still sitting in [queue] *)
  mutable s_admitted : int;
  mutable s_duplicates : int;
  mutable s_rejected_full : int;
  mutable s_rejected_client_cap : int;
  mutable s_peak_occupancy : int;
}

let create ?(config = Config.unbounded) () =
  {
    config;
    queue = Queue.create ();
    seen = Key_tbl.create 256;
    taken = Key_tbl.create 64;
    held = Int_tbl.create 64;
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
let occupancy t = Queue.length t.queue - t.stale + Key_tbl.length t.taken

let backpressure t = occupancy t >= t.config.Config.capacity

let held_by t client =
  match Int_tbl.find_opt t.held client with Some k -> k | None -> 0

let incr_held t client = Int_tbl.replace t.held client (held_by t client + 1)

let decr_held t client =
  match held_by t client - 1 with
  | 0 -> Int_tbl.remove t.held client (* keep [held] bounded by in-flight *)
  | k -> Int_tbl.replace t.held client k

let add t op =
  let key = Operation.key op in
  if Key_tbl.mem t.seen key then begin
    t.s_duplicates <- t.s_duplicates + 1;
    Duplicate
  end
  else if occupancy t >= t.config.Config.capacity then begin
    t.s_rejected_full <- t.s_rejected_full + 1;
    Rejected Pool_full
  end
  else if held_by t op.Operation.client >= t.config.Config.per_client_cap
  then begin
    t.s_rejected_client_cap <- t.s_rejected_client_cap + 1;
    Rejected Per_client_cap
  end
  else begin
    Key_tbl.replace t.seen key In_pool;
    Queue.push op t.queue;
    incr_held t op.Operation.client;
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
    (fun a b ->
      let ca, sa = Operation.key a and cb, sb = Operation.key b in
      match Int.compare ca cb with 0 -> Int.compare sa sb | c -> c)
    ops

let take t ~max =
  let rec go k acc =
    if k = 0 || Queue.is_empty t.queue then List.rev acc
    else
      let op = Queue.pop t.queue in
      let key = Operation.key op in
      match Key_tbl.find_opt t.seen key with
      | Some In_pool ->
          Key_tbl.replace t.seen key Taken;
          Key_tbl.replace t.taken key op;
          go (k - 1) (op :: acc)
      | Some Committed ->
          t.stale <- t.stale - 1;
          go k acc
      | Some Taken | None -> go k acc
  in
  sort_by_key (go max [])

(* A repeat commit costs one [seen] lookup; a first commit also writes
   the status in place, and only a [Taken] op touches [taken]. *)
let mark_committed t ops =
  List.filter
    (fun (op : Operation.t) ->
      let key = Operation.key op in
      match Key_tbl.find t.seen key with
      | Committed -> false
      | exception Not_found ->
          Key_tbl.add t.seen key Committed;
          true
      | (In_pool | Taken) as status ->
          if status = In_pool then t.stale <- t.stale + 1
          else Key_tbl.remove t.taken key;
          decr_held t op.client;
          Key_tbl.replace t.seen key Committed;
          true)
    ops

let pending t = Queue.length t.queue - t.stale

let is_committed t op =
  match Key_tbl.find_opt t.seen (Operation.key op) with
  | Some Committed -> true
  | Some (In_pool | Taken) | None -> false

let requeue_taken t =
  (* the fold's order is a hashtable artifact; sort so the re-queued ops
     re-enter in canonical key order on every replica. Requeued ops were
     already admitted, so neither capacity nor per-client caps re-apply:
     occupancy is unchanged by In_pool <-> Taken moves. *)
  let ops =
    Key_tbl.fold (fun _ op acc -> op :: acc) t.taken [] |> sort_by_key
  in
  Key_tbl.reset t.taken;
  List.iter
    (fun op ->
      Key_tbl.replace t.seen (Operation.key op) In_pool;
      Queue.push op t.queue)
    ops

let snapshot t =
  Queue.fold
    (fun acc op ->
      match Key_tbl.find_opt t.seen (Operation.key op) with
      | Some In_pool -> op :: acc
      | Some (Taken | Committed) | None -> acc)
    [] t.queue
  |> List.rev
