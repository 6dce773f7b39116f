(** Hash tables keyed by a pair of ints — an operation's [(client, seq)],
    a PBFT slot's [(view, height)] — that allocate nothing per lookup,
    insert or removal once grown.

    Open addressing: the two key halves sit unboxed in two [int] arrays,
    collisions probe linearly, and removal shifts the rest of the probe
    run back (no tombstones), so a table's cost depends only on what it
    holds now. Any [int] pair is a valid key: emptiness is marked in a
    separate byte per slot, not by a reserved key value. The table doubles
    when it would pass three-quarters full and never shrinks.

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

val fold : (int -> int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over every binding, in slot order. *)

val reset : 'a t -> unit
(** Remove every binding and keep the current capacity. *)
