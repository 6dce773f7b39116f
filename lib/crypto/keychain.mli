(** Key material for a cluster of [n] replicas.

    The paper's protocols use ECDSA signatures and a (n-f, n) threshold
    signature. This repository has no access to real public-key crypto, so
    both schemes are *simulated*: each replica holds an HMAC key derived
    deterministically from a cluster seed, and verification happens through
    the keychain (which stands in for the PKI). The simulated adversary
    never reads another replica's key, so unforgeability holds in the model;
    CPU costs of the real schemes are charged separately via
    {!Cost_model}. *)

type t

val create : ?seed:string -> n:int -> unit -> t
(** [create ~seed ~n ()] derives key material for replicas [0 .. n-1].
    The same seed always yields the same keys, which keeps simulations
    reproducible. @raise Invalid_argument if [n <= 0]. *)

val n : t -> int
(** Number of replicas the keychain was created for. *)

val secret : t -> int -> string
(** [secret kc i] is replica [i]'s signing key.
    @raise Invalid_argument if [i] is out of range. *)

val key : t -> int -> Hmac.key
(** Replica [i]'s signing key in prepared form ({!Hmac.prepare}d once at
    keychain creation) — the form the signature schemes sign and verify
    with. @raise Invalid_argument if [i] is out of range. *)

val system_key : t -> Hmac.key
(** The cluster-wide key under which combined threshold signatures are
    tagged (it stands in for the threshold public key), in prepared
    form. *)

val system : int
(** The key index {!mac} reads as the system key ([-1]). *)

val mac : t -> int -> string -> Sha256.t
(** [mac kc i input] is [Hmac.mac_prepared ~key input], where [key] is
    [key kc i], or [system_key kc] when [i = system]. Every tag the
    signature schemes compute goes through here; a combined signature
    that {!cert_checked} vouches for is not recomputed at all.

    Results are memoised per keychain by [i] and the exact bytes of
    [input]. A MAC is a pure function of key and input, so the answer is
    the one a fresh computation gives, forged inputs included; the memo
    only spares the host the repeats when the replicas of one simulated
    cluster check the same share or certificate. Simulated CPU time is
    charged per replica by the callers, memo or not. The memo holds a
    fixed number of entries and is emptied when full.
    @raise Invalid_argument if [i] is neither [system] nor in range. *)

val memo_capacity : int
(** Entries each memo ({!mac}'s and the certificate memo) holds before it
    is emptied (2048). *)

(** {2 Verified combined signatures}

    A second memo, of the combined threshold signatures verified under
    this keychain, keyed by tag. The n replicas of one simulated cluster
    each check the same certificate; with this memo the host checks it
    once. *)

val cert_checked : t -> Sha256.t -> threshold:int -> int list -> string -> bool
(** [cert_checked kc tag ~threshold signers msg] is [true] only when
    {!note_cert} recorded [tag] with the same [threshold], a signer list
    equal element by element to [signers] ([==] is tried first) and the
    same [msg]. Then the input is exactly one that verified before, and
    verification is a pure function of the keychain and its input, so
    [true] is the answer a full check gives. Any other input is [false],
    whatever its tag, and the caller checks it in full. *)

val note_cert : t -> Sha256.t -> threshold:int -> int list -> string -> unit
(** [note_cert kc tag ~threshold signers msg] records that the combined
    signature [tag] over [msg] by [signers] verifies at [threshold].
    Callers record only what they have checked in full. A later entry
    under the same tag replaces the earlier one. The memo holds at most
    {!memo_capacity} entries and is emptied when full. Simulated CPU time
    is charged per replica by the callers, memo or not. *)
