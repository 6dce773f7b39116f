(** HMAC-SHA256 (RFC 2104). Used as the tag function of the simulated
    signature schemes. *)

val mac : key:string -> string -> Sha256.t
(** [mac ~key msg] is HMAC-SHA256(key, msg). Keys of any length are
    accepted; keys longer than the block size are hashed first, per the
    RFC. *)

type key
(** A key in prepared form: the two 8-word SHA-256 chaining states left
    after absorbing the key's inner (ipad) and outer (opad) pad blocks.
    They are computed on the first {!mac_prepared} with the key and kept;
    the raw key is dropped then. Later MACs resume from the states and
    compress only the message and the inner digest. *)

val prepare : string -> key
(** [prepare raw] defers the chaining states to first use, so preparing
    costs almost nothing (a key longer than the block size is hashed
    here). [mac_prepared] with the result equals [mac] with the raw
    key. *)

val mac_prepared : key:key -> string -> Sha256.t
