(** A client operation: the unit of work the replicated state machine
    executes. Matches the paper's workload: an opaque body (150 bytes in
    most experiments, empty for "no-op" runs) tagged with the issuing client
    and a per-client sequence number. *)

type t = { client : int; seq : int; body : string }

val make : client:int -> seq:int -> body:string -> t
val key : t -> int * int
(** [(client, seq)] — the deduplication key. *)

module Key_tbl : Hashtbl.S with type key = int * int
(** Hash tables on {!key}, without the polymorphic hash and equality. *)

val encode : Wire.Enc.t -> t -> unit
val decode : Wire.Dec.t -> t
val wire_size : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
