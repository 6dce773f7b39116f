(** View-timer policy: exponential backoff on consecutive view changes,
    reset on progress. Pure bookkeeping — the actual timers live in the
    runtime, driven by [Timer] actions. *)

type t

val create : base:float -> max:float -> t

val current_timeout : t -> float

val note_progress : t -> unit
(** A block committed; backoff resets to the base timeout. *)

val note_view_change : t -> unit
(** A timeout escalated to a view change; the next timeout doubles,
    saturating {e exactly} at [max] (no float overshoot). *)

val consecutive_failures : t -> int
