(** The discrete-event simulation core: a virtual clock and an event loop.

    Time is in seconds of simulated time. Events scheduled for the same
    instant run in scheduling order. All higher layers (network, timers,
    clients) are built on [schedule]. *)

type t

val create : unit -> t
val now : t -> float

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Events in the past run at the current time (never travel backwards). *)

val schedule_in : t -> delay:float -> (unit -> unit) -> unit

val run : ?until:float -> t -> unit
(** Run events in time order until the queue drains or the clock passes
    [until]. With [until], the clock is left at exactly [until] (events
    beyond it stay queued). *)

val pending : t -> int

val peak_pending : t -> int
(** High-water mark of [pending] over the run — the scheduler's peak
    memory footprint in events. *)
