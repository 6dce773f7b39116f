(** Open-loop arrival processes.

    An arrival process describes {e when} operations are offered to the
    system, independent of how fast the system absorbs them — the defining
    property of open-loop load (a closed-loop client waits for a reply
    before submitting again, so it can never push past saturation).

    The one process is Poisson: memoryless arrivals at a fixed rate, as
    in the paper's client model. The constructor validates the rate and
    the type is abstract, so every in-flight value is known valid.
    Sampling is driven entirely by a caller-supplied {!Marlin_sim.Rng}
    stream: same seed, same arrival times, bit for bit. *)

type t

val poisson : rate:float -> t
(** Memoryless arrivals at [rate] ops/s.
    @raise Invalid_argument unless [rate] is finite and positive. *)

val mean_rate : t -> float
(** Long-run average offered rate in ops/s. *)

val scale : t -> by:float -> t
(** Multiply the rate by [by].
    @raise Invalid_argument unless [by] is finite, positive. *)

val with_mean_rate : t -> rate:float -> t
(** [scale]d so that {!mean_rate} equals [rate] — how a sweep re-targets
    one arrival process at many offered loads. *)

val label : t -> string
(** Short deterministic description, e.g. ["poisson(20000/s)"]. *)

val pp : Format.formatter -> t -> unit

(** A stateful sampler: successive arrival instants for one source. *)
module Sampler : sig
  type arrival := t
  type t

  val create : arrival -> rng:Marlin_sim.Rng.t -> t
  (** The sampler owns [rng] from here on: give each source its own
      {!Marlin_sim.Rng.split} stream. *)

  val next : t -> now:float -> float
  (** The first arrival instant strictly after [now]. Calls must pass
      non-decreasing [now] values (the simulation clock). *)
end
