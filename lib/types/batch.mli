(** A batch of client operations — the [op] field of a block. *)

type t

val empty : t
val of_list : Operation.t list -> t
val to_list : t -> Operation.t list
val length : t -> int
val is_empty : t -> bool
val digest : t -> Marlin_crypto.Sha256.t
(** Digest over the batch's canonical encoding; cached. *)

val encode : Wire.Enc.t -> t -> unit
val decode : Wire.Dec.t -> t
(** @raise Wire.Dec.Decode_error on malformed input, including an op count
    larger than the remaining bytes can hold, before allocating for it. *)

val wire_size : t -> int
(** Size of the canonical encoding in bytes; cached after the first call
    (batches are immutable), so per-broadcast size accounting stays O(1)
    in the batch length. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
