(** Metered cryptographic operations for consensus code.

    Thin wrappers over [Qc]'s vote/combine/verify that also charge the
    {!Cpu_meter} — using these (and only these) from protocol code keeps
    the simulated CPU accounting honest. Each replica keeps the QCs it has
    verified, so re-verifying a certificate it has already checked is
    free, as in a real implementation. A cache hit needs the whole
    certificate to be equal, not just its tag: a copy of a checked QC
    with another block, view or phase is verified (and charged) in full.

    Charging is per replica and independent of the keychain's certificate
    memo ({!Marlin_crypto.Keychain.cert_checked}): every replica's first
    check of a QC charges its own meter one combined verify, even when an
    earlier replica's check lets the host answer from the memo, so the
    simulated CPU time is what it would be with no memo at all. *)

open Marlin_types

type t

val create :
  keychain:Marlin_crypto.Keychain.t -> meter:Cpu_meter.t -> quorum:int -> t

val quorum : t -> int

val replicas : t -> int
(** The cluster size n: replica ids are [0 .. n-1]. *)

val meter : t -> Cpu_meter.t

val sign_vote :
  t -> signer:int -> phase:Qc.phase -> view:int -> Qc.block_ref ->
  Marlin_crypto.Threshold.partial

val verify_vote : t -> Qc.ballot -> Marlin_crypto.Threshold.partial -> bool
(** One share against a ballot ({!Qc.verify_ballot}); charges one partial
    verify. *)

val combine :
  t -> Qc.ballot -> Marlin_crypto.Threshold.partial list ->
  (Qc.t, string) result
(** {!Qc.combine_ballot} at the quorum; charges one combine over every
    share passed. For shares that arrive unchecked, such as the shares
    of VIEW-CHANGE messages. *)

val aggregate :
  t -> Qc.ballot -> Marlin_crypto.Threshold.partial list ->
  (Qc.t, string) result
(** {!Qc.aggregate_ballot} at the quorum, for shares that each passed
    {!verify_vote} against this ballot; charges exactly what {!combine}
    charges, one combine over every share passed, so the simulated CPU
    time does not depend on which of the two the caller uses. *)

val verify_qc : t -> Qc.t -> bool
