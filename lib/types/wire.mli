(** Binary wire codec.

    Every protocol message can be serialized to a compact binary form; the
    network simulator charges bandwidth for exactly these bytes, so the
    communication-complexity measurements (Table I) reflect real encodings
    rather than estimates. Counters and lengths are variable-length
    integers (LEB128). *)

(** Encoder: an append-only buffer. *)
module Enc : sig
  type t

  val create : ?size:int -> unit -> t
  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  (** LEB128; the integer must be non-negative. *)

  val bool : t -> bool -> unit
  val bytes : t -> string -> unit
  (** Length-prefixed (varint) byte string. *)

  val raw : t -> string -> unit
  (** Raw bytes, no length prefix (for fixed-size fields like digests). *)

  val contents : t -> string
end

(** Decoder over a string, raising {!Decode_error} on malformed input. *)
module Dec : sig
  type t

  exception Decode_error of string

  val of_string : string -> t
  val u8 : t -> int
  val varint : t -> int
  val bool : t -> bool
  val bytes : t -> string
  val raw : t -> int -> string
  val at_end : t -> bool
  val remaining : t -> int
end

val varint_size : int -> int
(** Bytes {!Enc.varint} uses for a value — handy for size-only accounting. *)
