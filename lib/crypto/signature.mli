(** Simulated conventional signatures (the paper's ECDSA).

    A signature is an HMAC tag under the signer's key from the
    {!Keychain}. Wire size matches ECDSA-P256 (64 bytes), so bandwidth
    accounting in the simulator is faithful. *)

type t = { signer : int; tag : Sha256.t }

val sign : Keychain.t -> signer:int -> string -> t
(** [sign kc ~signer msg] signs [msg] with replica [signer]'s key. *)

val verify : Keychain.t -> string -> t -> bool
(** [verify kc msg s] checks that [s] is a valid signature over [msg]. *)

