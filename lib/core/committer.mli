(** Shared commit and state-transfer machinery.

    Every protocol here commits the same way: a commit certificate names a
    block by reference, and the replica must apply that block and its
    uncommitted ancestors in order — fetching any bodies it never received
    (it may have voted on references during view changes or behind a
    partition). This module owns the block store's committed frontier, the
    held-back certificate, and the outstanding fetch set. *)

open Marlin_types

type t

val create : Consensus_intf.config -> Block_store.t -> t

type result = {
  committed : Block.t list;  (** newly committed, oldest first *)
  sends : Consensus_intf.action list;  (** fetch requests to issue *)
}

val note_block : t -> Block.t -> result
(** Record a block (idempotent), drop its digest from the outstanding
    fetch set, and retry any held certificate. *)

val solicited : t -> Block.t -> bool
(** Does a FETCH-RESP carrying this block answer a fetch? True when its
    digest is in the outstanding fetch set (fetched, not yet received)
    or the block is already stored, as a late or repeated answer is. *)

val deliver : t -> view:int -> Qc.t -> result
(** Apply a {e verified} commit certificate. If bodies are missing the
    certificate is held and fetches are issued (addressed to the
    certificate's leader, or a signer when we are that leader).
    @raise Failure on a certificate conflicting with the committed chain —
    a safety violation, surfaced loudly on purpose. *)

val retry : t -> result
(** Retry the held certificate (call after resolving a virtual parent). *)

val handle_fetch :
  t -> sender:int -> view:int -> Marlin_crypto.Sha256.t ->
  Consensus_intf.action list
(** Answer a peer's fetch request if we hold the block. *)
