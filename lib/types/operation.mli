(** A client operation: the unit of work the replicated state machine
    executes. Matches the paper's workload: an opaque body (150 bytes in
    most experiments, empty for "no-op" runs) tagged with the issuing client
    and a per-client sequence number. *)

type t = { client : int; seq : int; body : string }

val make : client:int -> seq:int -> body:string -> t
val key : t -> int * int
(** [(client, seq)] — the deduplication key. Tables keyed by it are
    {!Pair_tbl}s, which take the two halves unboxed. *)

val encode : Wire.Enc.t -> t -> unit
val decode : Wire.Dec.t -> t
val wire_size : t -> int
val equal : t -> t -> bool
