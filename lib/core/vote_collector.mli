(** Collects votes (partial signatures) per (phase, view, block) and
    reports when a quorum is reached.

    An entry is keyed by everything a vote signs: the phase, the view and
    the whole {!Qc.block_ref}, not only its digest, so a hostile vote
    whose reference shares an honest block's digest but differs in
    height, parent view, view or virtual flag goes to an entry of its own
    and cannot block the honest certificate. Each entry encodes its vote
    payload and share message once ({!Qc.ballot}).

    Each vote is verified (and metered) through {!Auth} before it counts,
    and that is the only check of its share: the quorum is aggregated
    from the counted shares ({!Auth.aggregate}) without a second one.
    The simulated CPU time is charged as before, one partial verify per
    checked share and one combine per QC. Duplicate signers are found in
    an n-byte bitmap per entry; an out-of-range signer id is never a
    duplicate and fails verification. [Quorum] fires exactly once per
    key, and the entry's ballot, shares and bitmap are released when it
    does: a formed entry keeps only its phase, view and block reference,
    enough to reject a late vote as [Complete] with no verify charged,
    until {!gc_below_view} drops it. *)

open Marlin_types

type t

val create : Auth.t -> t

type rejection =
  | Complete  (** the entry's quorum has already formed *)
  | Duplicate_signer  (** this signer's share has already counted *)
  | Invalid_share  (** the share does not verify against the entry *)
  | Combine_failed of string  (** the quorum's shares did not combine *)
(** Why a vote did not count. Every constant case is a static value:
    a rejection allocates nothing. *)

type outcome =
  | Quorum of Qc.t  (** the quorum was just reached; here is the QC *)
  | Counted of int  (** vote accepted; running count *)
  | Rejected of rejection

val add :
  t -> phase:Qc.phase -> view:int -> block:Qc.block_ref ->
  Marlin_crypto.Threshold.partial -> outcome

val count : t -> phase:Qc.phase -> view:int -> block:Qc.block_ref -> int
(** Votes counted for the key (the quorum once it has formed), 0 for an
    unknown key. *)

val gc_below_view : t -> int -> unit
(** Drop state for views below the given one. *)
