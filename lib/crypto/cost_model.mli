(** CPU and wire-size cost model for the cryptographic operations.

    The simulated signature scheme computes in nanoseconds; real ECDSA and
    pairing-based threshold signatures do not. The simulator charges each
    protocol-level crypto operation the duration a real implementation would
    take on the paper's 2.3 GHz cores, using this module's figures. Two
    instantiations are provided, matching the paper's discussion
    (Section I and III):

    - {!ecdsa_group}: threshold signatures instantiated as a group of [t]
      ECDSA signatures — the "most efficient implementation" the paper (and
      its evaluation) uses. Combining is concatenation; verifying a combined
      certificate verifies [t] signatures; a combined certificate carries
      [t] 64-byte signatures on the wire.
    - {!bls_pairing}: a pairing-based threshold scheme (BLS). Fixed 48-byte
      combined signatures, but signing/verification pay pairing costs that
      are orders of magnitude above ECDSA.

    The magnitudes below are from published measurements of OpenSSL
    ECDSA-P256 and BLS12-381 on ~2.3 GHz server cores; only their ratios
    matter for the reproduced figures. *)

type scheme = Ecdsa_group | Bls_pairing

type t

val ecdsa_group : t
val bls_pairing : t

val sign_cost : t -> float
(** Seconds to produce one conventional signature. *)

val verify_cost : t -> float
(** Seconds to verify one conventional signature. *)

val partial_sign_cost : t -> float
(** Seconds for a replica to produce one threshold share. *)

val partial_verify_cost : t -> float
(** Seconds to verify one received threshold share. *)

val combine_cost : t -> shares:int -> float
(** Seconds for a leader to combine [shares] verified shares. *)

val combined_verify_cost : t -> shares:int -> float
(** Seconds to verify a combined (t, n) signature carrying [shares]
    signers. *)

val hash_cost : bytes:int -> float
(** Seconds to hash a [bytes]-long message (SHA-256 throughput). *)

val combined_size : t -> n:int -> shares:int -> int
(** Wire bytes of a combined certificate: [shares * 64] for
    {!ecdsa_group}, [48 + n/8] for {!bls_pairing}. *)

val pairing_cost : float
(** Seconds for a single pairing operation (exposed for Table I
    cross-checks). *)

