(** Simulated (t, n) threshold signatures.

    Follows the (tgen, tsign, tcombine, tverify) interface of Section III of
    the paper, with t = n - f. A partial signature is a per-replica HMAC
    share; [combine] checks that at least [threshold] distinct replicas
    signed the same message and produces a fixed-size combined tag plus a
    signer bitmap — the same wire footprint as a BLS threshold signature
    with an n-bit signer vector. *)

type partial = { signer : int; tag : Sha256.t }
(** A partial signature (one replica's share). *)

type t = { signers : int list; tag : Sha256.t }
(** A combined signature. [signers] is sorted and duplicate-free. *)

val partial_size_bytes : int
(** Wire size of a partial signature (64 bytes). *)

val sign : Keychain.t -> signer:int -> string -> partial
(** [sign kc ~signer msg] produces replica [signer]'s share over [msg]. *)

val verify_partial : Keychain.t -> string -> partial -> bool

val combine :
  Keychain.t -> threshold:int -> string -> partial list ->
  (t, string) result
(** [combine kc ~threshold msg partials] combines shares over [msg].
    Fails (with a human-readable reason) if fewer than [threshold] distinct
    valid shares are supplied. Extra shares beyond the threshold are
    allowed; invalid or duplicate shares are rejected. *)

val verify : Keychain.t -> threshold:int -> string -> t -> bool
(** [verify kc ~threshold msg s] checks a combined signature: the tag must
    match the cluster key over [msg] and the signer set, and at least
    [threshold] distinct in-range signers must be present. An input the
    keychain's certificate memo holds exactly ({!Keychain.cert_checked})
    is answered [true] without recomputing the tag; any other input is
    checked in full, and recorded there if it verifies. *)

val equal : t -> t -> bool
