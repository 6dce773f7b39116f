(** Accumulates the simulated CPU time a replica spends on cryptography.

    The protocol implementations call the {!Auth} wrappers, which both run
    the (simulated) crypto and charge realistic durations here; after each
    event the runtime drains the pending charge and pushes the replica's
    CPU-free horizon forward by that much. *)

type t

val create : Marlin_crypto.Cost_model.t -> t

val charge_partial_sign : t -> unit
val charge_partial_verify : t -> unit
val charge_combine : t -> shares:int -> unit
val charge_combined_verify : t -> shares:int -> unit

val take : t -> float
(** The charge accumulated since the last [take]; resets it. *)

val op_count : t -> int
(** Number of crypto operations charged (Table I cross-checks). *)
