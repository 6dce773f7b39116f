(** A priority queue of timestamped events — an array-backed binary heap
    with O(log n) push/pop that allocates nothing once its arrays have
    grown. Ties break by insertion order (a monotonically increasing
    sequence number), which keeps simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** The earliest event, or [None] when empty. *)

val next_time : 'a t -> float
(** The earliest event's time, or [infinity] when empty. With [pop_min],
    the event loop's allocation-free pair. *)

val pop_min : 'a t -> 'a
(** Remove the earliest event and return its value.
    @raise Invalid_argument when empty. *)

val peek_time : 'a t -> float option
val length : 'a t -> int
val is_empty : 'a t -> bool

val max_length : 'a t -> int
(** High-water mark of [length] over the queue's lifetime. *)
