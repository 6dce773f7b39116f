(** Simulated (t, n) threshold signatures.

    Follows the (tgen, tsign, tcombine, tverify) interface of Section III of
    the paper, with t = n - f. A partial signature is a per-replica HMAC
    share; [combine] checks that at least [threshold] distinct replicas
    signed the same message and produces a fixed-size combined tag plus a
    signer bitmap — the same wire footprint as a BLS threshold signature
    with an n-bit signer vector.

    Combination comes in two forms. {!combine} takes shares from anywhere
    and checks each one; {!aggregate} takes shares the caller has already
    checked against the same message (with {!verify_share}, say, as a
    vote collector does when each share arrives) and checks none of them
    again. [combine] is "check each share, then [aggregate]", so the two
    agree on every input whose shares all verify. *)

type partial = { signer : int; tag : Sha256.t }
(** A partial signature (one replica's share). *)

type t = { signers : int list; tag : Sha256.t }
(** A combined signature. [signers] is sorted and duplicate-free. *)

val partial_size_bytes : int
(** Wire size of a partial signature (64 bytes). *)

val sign : Keychain.t -> signer:int -> string -> partial
(** [sign kc ~signer msg] produces replica [signer]'s share over [msg]. *)

val verify_partial : Keychain.t -> string -> partial -> bool
(** [verify_partial kc msg p] checks that [p] is its in-range signer's
    share over [msg]. *)

val combine :
  Keychain.t -> threshold:int -> string -> partial list ->
  (t, string) result
(** [combine kc ~threshold msg partials] combines shares over [msg].
    Fails (with a human-readable reason) if fewer than [threshold] distinct
    valid shares are supplied. Extra shares beyond the threshold are
    allowed; invalid or duplicate shares are rejected. Every share is
    checked as {!verify_partial} checks it, against one share message
    built once per call, and the valid ones are passed to {!aggregate}. *)

type share_msg
(** The bytes a share's MAC covers for one message, built once by
    {!share_msg} and reused for every share checked against it. *)

val share_msg : string -> share_msg

val verify_share : Keychain.t -> share_msg -> partial -> bool
(** [verify_share kc (share_msg msg) p] is [verify_partial kc msg p]. *)

val aggregate :
  Keychain.t -> threshold:int -> string -> partial list ->
  (t, string) result
(** [aggregate kc ~threshold msg partials] combines shares the caller
    has already verified over [msg]: it checks none of them, but still
    drops duplicate signers, fails as {!combine} does when fewer than
    [threshold] distinct signers remain, and computes the combined tag.
    The combined tag covers only the signer ids and [msg], so a share
    that would not verify still yields a certificate that {!verify}
    accepts, naming a replica that never signed: the caller must pass
    only checked shares. *)

val verify : Keychain.t -> threshold:int -> string -> t -> bool
(** [verify kc ~threshold msg s] checks a combined signature: the tag must
    match the cluster key over [msg] and the signer set, and at least
    [threshold] distinct in-range signers must be present. An input the
    keychain's certificate memo holds exactly ({!Keychain.cert_checked})
    is answered [true] without recomputing the tag; any other input is
    checked in full, and recorded there if it verifies. *)

val equal : t -> t -> bool
(** Structural equality: the same tag and the same signer list. A value
    is equal to itself without a walk of its signers ([==] first; both
    fields are immutable), so a certificate shared by reference compares
    in O(1). A copy is compared element by element. *)
