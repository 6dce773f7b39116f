(** Hash tables keyed by a pair of ints — an operation's [(client, seq)],
    a PBFT slot's [(view, height)] — that allocate nothing per lookup,
    insert or removal once grown.

    Open addressing: the two key halves sit unboxed in two [int] arrays,
    collisions probe linearly, and removal shifts the rest of the probe
    run back (no tombstones), so a table's cost depends only on what it
    holds now. Any [int] pair is a valid key: emptiness is marked in a
    separate byte per slot, not by a reserved key value. The table doubles
    when it would pass three-quarters full and never shrinks.

    The slot-level calls ({!slot}, then {!get}, {!set}, {!insert} or
    {!remove_slot}) probe once per key: a caller that reads a key and then
    writes, inserts or removes it does so at the slot the one probe found.

    Iteration order ({!fold}) is an artifact of the hash; callers that
    need a canonical order sort. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy n] is an empty table sized for about [n] keys, its
    values kept in an ['a array]; [dummy] fills empty slots. A float
    [dummy] makes that a flat float array: stores then allocate nothing,
    but {!find} boxes its result. *)

val create_bytes : int -> int t
(** An empty table sized for about [n] keys whose values are in
    [\[0, 254\]], kept in the slot's marker byte: two words and one byte
    per slot, for status tables that hold every key a run has seen.
    {!replace} raises [Invalid_argument] on a value out of range. *)

val length : 'a t -> int
val mem : 'a t -> int -> int -> bool

val find : 'a t -> int -> int -> 'a
(** @raise Not_found when the key is absent. *)

val replace : 'a t -> int -> int -> 'a -> unit
(** Bind the key to the value, replacing any previous binding. *)

val remove : 'a t -> int -> int -> unit
(** Unbind the key; a no-op when it is absent. *)

(** {2 Slot-level calls}

    One probe per key: {!slot} finds the key's slot, or the empty slot
    where it would go, and the calls below act on that answer without
    searching again. A read-modify-write of one key, such as a status
    transition or a counter update, then costs one probe instead of two.
    An answer of {!slot} stays valid until a key is next bound or unbound
    ({!insert}, {!replace} of an absent key, {!remove}, {!remove_slot},
    {!reset}); {!get}, {!set} and lookups keep it. *)

val slot : 'a t -> int -> int -> int
(** [slot t a b] is the key's slot ([>= 0]) when the key is bound, and
    otherwise a negative insertion hint for {!insert}. *)

val get : 'a t -> int -> 'a
(** The value at an occupied slot.
    @raise Invalid_argument on an empty slot. *)

val set : 'a t -> int -> 'a -> unit
(** Rebind the key at an occupied slot.
    @raise Invalid_argument on an empty slot, or on a byte out of range. *)

val insert : 'a t -> hint:int -> int -> int -> 'a -> unit
(** [insert t ~hint a b v] binds the absent key [(a, b)], where [hint] is
    what {!slot} answered for it. When the insert grows the table, the
    hint, a slot of the old arrays, is dropped and the key searched for
    again in the new ones.
    @raise Invalid_argument on a non-negative hint, or on a byte out of
    range. *)

val remove_slot : 'a t -> int -> unit
(** Unbind the key at an occupied slot, as {!remove} does.
    @raise Invalid_argument on an empty slot. *)

val fold : (int -> int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over every binding, in slot order. *)

val reset : 'a t -> unit
(** Remove every binding and keep the current capacity. *)
