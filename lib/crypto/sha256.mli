(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the only "real" cryptographic primitive in the repository: block
    hashes, parent links and HMAC-based simulated signatures are all built on
    it. The implementation is pure OCaml over native [int]s masked to 32
    bits, so hashing allocates nothing beyond a context and the digest. It
    is validated against the NIST test vectors in the test suite. Needs
    63-bit native ints (a 64-bit platform). *)

type t
(** A 32-byte digest. *)

val digest_size : int
(** Size of a digest in bytes (32). *)

val string : string -> t
(** [string s] is the SHA-256 digest of [s]. *)

val bytes : bytes -> t
(** [bytes b] is the SHA-256 digest of the contents of [b]. *)

val to_raw : t -> string
(** [to_raw d] is the 32-byte big-endian digest string. *)

val of_raw : string -> t
(** [of_raw s] reinterprets a 32-byte string as a digest.
    @raise Invalid_argument if [String.length s <> 32]. *)

val to_hex : t -> string
(** Lowercase hexadecimal rendering (64 characters). *)

val of_hex : string -> t
(** Inverse of {!to_hex}. @raise Invalid_argument on malformed input. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
(** Prints the first 8 hex characters — enough to identify a block in logs. *)

(** Incremental interface, used by {!Hmac} and the wire codec. *)
module Ctx : sig
  type ctx

  val create : unit -> ctx
  val feed_string : ctx -> string -> unit
  val feed_bytes : ctx -> bytes -> unit

  val finalize : ctx -> t
  (** The digest of everything fed. The context must not be used after. *)

  val copy : ctx -> ctx
  (** [copy c] is an independent context in the state of [c]: feeding or
      finalizing either one leaves the other unchanged. *)

  type midstate
  (** The chaining state of a context that has been fed a whole number of
      64-byte blocks: 8 words and the byte count, without the block buffer
      or message schedule a context carries. *)

  val midstate : ctx -> midstate
  (** @raise Invalid_argument if the bytes fed so far are not a multiple
      of 64. *)

  val resume : midstate -> ctx
  (** A fresh context in the saved state, as if it had been fed the same
      bytes. The midstate itself is not changed by feeding the result. *)
end
