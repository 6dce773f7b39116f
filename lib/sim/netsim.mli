(** The simulated network.

    Models the paper's testbed: every endpoint (replica or client) has a
    finite-rate uplink (200 Mbps in the evaluation) modelled as a FIFO
    transmission queue, plus a propagation delay per message (the injected
    40 ms) with optional jitter. Partial synchrony is modelled by an extra,
    randomly drawn delay applied to messages sent before GST.

    Fault injection lives in the {!Fault} sub-module: endpoints can crash
    and recover, the network can partition and heal, links can be filtered,
    slowed, and made lossy or duplicating — enough to express every fault
    scenario in the paper's evaluation, the adversarial schedules of
    Figure 2, and the [Marlin_faults] scenario catalogue. *)

type config = {
  latency : float;  (** one-way propagation delay, seconds *)
  jitter : float;  (** uniform extra delay in [0, jitter) *)
  bandwidth_bps : float;  (** per-endpoint uplink rate; [infinity] allowed *)
  gst : float;  (** global stabilization time *)
  pre_gst_extra : float;  (** max extra delay for pre-GST sends *)
}

val default_config : config
(** The paper's testbed: 40 ms latency, 200 Mbps, 1 ms jitter, GST = 0. *)

type t

val create : Sim.t -> Rng.t -> config -> endpoints:int -> t
(** @raise Invalid_argument naming the field when [latency], [jitter],
    [gst] or [pre_gst_extra] is negative or not finite, or
    [bandwidth_bps] is not [> 0] ([infinity] is allowed). *)

val register :
  t -> id:int -> (src:int -> Marlin_types.Message.t -> unit) -> unit
(** Install endpoint [id]'s delivery handler. *)

val send :
  t -> ?earliest:float -> src:int -> dst:int -> size:int ->
  Marlin_types.Message.t -> unit
(** Queue a message. [size] is the wire size in bytes (the caller computes
    it via [Message.wire_size] so the signature scheme's footprint is
    honoured). [earliest] lets callers model CPU time: the message cannot
    depart before that instant. Sends to self deliver with no network cost
    (after [earliest]) and are exempt from probabilistic faults. *)

val broadcast :
  t -> ?earliest:float -> src:int -> dsts:int array -> size:int ->
  Marlin_types.Message.t -> unit
(** Send one message to every endpoint in [dsts], in order: exactly
    [Array.iter (fun dst -> send ...) dsts] — the same stats, metering,
    trace events, NIC charging, RNG draws and one queued event per
    accepted copy — except that the authenticator count is computed once
    (the caller computes [size] once too). *)

(** Fault injection. Every operation takes effect at the instant it is
    called and composes with the others: a send must pass the user link
    filter {e and} the partition {e and} the loss draw to be accepted.
    Probabilistic faults draw from the simulation RNG only while active,
    so a run that never injects faults consumes the exact same random
    stream as one built before this module existed. *)
module Fault : sig
  val crash : t -> id:int -> unit
  (** Endpoint stops sending and receiving until {!recover}. Messages
      already in flight toward it are dropped at delivery time. *)

  val recover : t -> id:int -> unit
  (** Undo {!crash}: the endpoint sends and receives again (crash-recovery
      model; its protocol state is whatever it was at the crash). *)

  val is_crashed : t -> id:int -> bool

  val set_link_filter :
    t -> (src:int -> dst:int -> Marlin_types.Message.t -> bool) option -> unit
  (** When set, messages for which the filter returns [false] are dropped
      at send time (targeted drops, hand-built adversarial schedules). *)

  val partition : t -> int list list -> unit
  (** [partition t groups] splits the network: two endpoints that appear in
      {e different} groups cannot exchange messages; endpoints in no group
      (typically clients) keep talking to everyone. Replaces any previous
      partition. @raise Invalid_argument if an endpoint appears twice or is
      out of range. *)

  val heal : t -> unit
  (** Clear every {e network} fault: partition, loss, duplication and extra
      delay. Crashed endpoints stay crashed ({!recover} is per-endpoint)
      and the user link filter is untouched. *)

  val drop_fraction : t -> p:float -> unit
  (** Drop each non-self message independently with probability [p]
      (deterministically, from the simulation RNG). [p = 0.] disables.
      @raise Invalid_argument unless [0 <= p < 1]. *)

  val duplicate : t -> p:float -> unit
  (** Deliver each non-self message twice with probability [p]; the copy
      takes an independent extra jitter. @raise Invalid_argument unless
      [0 <= p < 1]. *)

  val delay_links : t -> extra:float -> unit
  (** Add [extra] seconds of propagation delay to every non-self message
      (degraded network / pre-GST churn). [extra = 0.] disables. *)
end

val on_send :
  t -> (src:int -> dst:int -> size:int -> Marlin_types.Message.t -> unit) option -> unit
(** Metering hook, called for every accepted send (before delivery). *)

val set_obs : t -> Marlin_obs.Run.t option -> unit
(** Attach an observability run: every accepted send emits a [net-queued]
    event (with its computed departure time) and every delivery a
    [net-delivered] event, and per-replica sent/received message counters
    are fed with the same wire sizes the simulator charges for. *)

(** Aggregate counters since creation. *)
type stats = { messages : int; bytes : int; authenticators : int }

val stats : t -> stats
val reset_stats : t -> unit
