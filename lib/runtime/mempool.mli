(** A replica's bounded pool of pending client operations.

    FIFO with deduplication and admission control: an operation enters
    once, operations seen committed never re-enter (clients may resubmit
    after view changes), and a {!Config.t} caps both total occupancy and
    per-client in-flight operations so overload turns into explicit,
    counted rejections instead of unbounded queue growth. *)

(** Admission-control limits, validated at construction. *)
module Config : sig
  type t

  val unbounded : t
  (** No limits — the pre-admission-control behaviour, and the default for
      closed-loop experiments (a closed loop self-limits at
      [clients] in-flight operations). *)

  val make : ?capacity:int -> ?per_client_cap:int -> unit -> t
  (** Both default to unlimited. [capacity] bounds total in-flight
      occupancy (queued + taken, uncommitted); [per_client_cap] bounds one
      client's in-flight operations.
      @raise Invalid_argument when either is [< 1]. *)
end

type reject_reason =
  | Pool_full  (** occupancy reached the configured [capacity] *)
  | Per_client_cap  (** the client reached the configured [per_client_cap] *)

type admission =
  | Admitted
  | Duplicate
      (** Key already known — pending, taken, or committed. Committed
          duplicates drive re-replies to retransmitting clients (test with
          {!is_committed}). *)
  | Rejected of reject_reason  (** Dropped by admission control. *)

(** Monotonic counters since [create], plus the high-water occupancy mark
    (sampled at admissions). *)
type stats = {
  admitted : int;
  duplicates : int;
  rejected_full : int;
  rejected_client_cap : int;
  peak_occupancy : int;
}

type t

val create : ?config:Config.t -> unit -> t
(** [config] defaults to {!Config.unbounded}. *)

val add : t -> Marlin_types.Operation.t -> admission
(** Admit, deduplicate, or reject one operation. Checks run in order:
    duplicate, then pool capacity, then per-client cap — so a duplicate of
    a known key is reported [Duplicate] even when the pool is full. *)

val occupancy : t -> int
(** In-flight operations held here: pending plus taken, uncommitted. *)

val backpressure : t -> bool
(** [occupancy t >= capacity] — the signal a replica surfaces to load
    generators so open-loop sources can shed at the source instead of
    burning network on ops that will be rejected. *)

val stats : t -> stats

val take : t -> max:int -> Marlin_types.Operation.t list
(** Dequeue up to [max] operations. Selection is FIFO, but the returned
    batch is sorted by {!Marlin_types.Operation.key} so the proposal a
    leader builds is a canonical function of the {e set} of operations it
    holds — two replicas that ingested the same operations in different
    interleavings propose byte-identical batches (the simulator's
    regression gate diffs whole runs, so this matters). *)

val mark_committed :
  t -> Marlin_types.Operation.t list -> Marlin_types.Operation.t list
(** Remove committed operations, remember their keys, and release their
    occupancy and per-client budget. Returns, in order, the operations
    committed here for the first time, which are the ones to execute: a
    repeat commit returns nothing and changes nothing, and an operation
    this pool never saw (its block was fetched) is returned. *)

val pending : t -> int

val is_committed : t -> Marlin_types.Operation.t -> bool
(** Has this operation's key been seen committed here? (Drives re-replies
    to retransmitting clients.) *)

val snapshot : t -> Marlin_types.Operation.t list
(** The operations currently in the pool (not taken, not committed), FIFO
    order, without removing them — used to re-relay to a new leader. *)

val requeue_taken : t -> unit
(** Return every taken-but-uncommitted operation to the pool, in canonical
    key order. Called on view changes: operations batched into blocks that
    the old view orphaned must be re-proposed, or their clients never hear
    back. Requeued operations were already admitted, so admission control
    does not re-apply (occupancy is unchanged). *)
