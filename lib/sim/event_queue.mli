(** A priority queue of timestamped events — an array-backed binary heap
    with O(log n) push/pop that allocates nothing once its arrays have
    grown. Ties break by insertion order (a monotonically increasing
    sequence number), which keeps simulations deterministic.

    The values live in a slab: each one stays in one slab slot from push
    to pop, and the heap sifts only an unboxed [(time, seq, slot)] triple,
    with seq and slot packed into one int, so a sift moves no pointer and
    pays no GC write barrier. The free slots are kept in the same int
    array, past the heap's end, so the slab costs no array of its own. A
    popped value's slot is cleared, so the queue holds no popped value.
    One queue holds at most 2{^24} events and takes at most 2{^38} pushes
    in its lifetime; past either, {!push} raises [Failure]. *)

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
