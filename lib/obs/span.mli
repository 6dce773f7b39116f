(** Causal spans: where a committed block's latency went.

    Post-hoc analysis over a {!Trace} event buffer. For every [Commit]
    event the reconstruction walks the causal chain backwards — commit ←
    quorum certificate ← quorum-completing vote ← the message that
    triggered the vote ← … — until it reaches the anchoring [Propose],
    and decomposes the interval into contiguous {e segments}:

    - [Cpu]: handler start to CPU handoff (crypto, execution, backlog);
    - [Nic_queue]: waiting in the sender's uplink FIFO;
    - [Serialize]: the message occupying the wire ([tx]);
    - [Propagate]: flight time (propagation delay + jitter);
    - [Quorum_wait]: from the decisive voter signing its vote to the
      certificate forming — what the protocol spends {e waiting for a
      quorum}, one segment per certificate on the critical path. A
      two-phase protocol shows exactly 2 per commit, a three-phase one 3.

    Segments are contiguous by construction, so for a [complete] span
    their durations sum to [commit_time -. propose_time] exactly (modulo
    float rounding, well under 1e-9 simulated seconds).

    The walk matches events by buffer position, not timestamp: emission
    order is causal order even within one simulated instant, and
    queue/deliver pairs are matched by the simulator's unique message id,
    so jitter-reordered messages cannot be confused. *)

type component = Cpu | Nic_queue | Serialize | Propagate | Quorum_wait

val component_name : component -> string
(** ["cpu"], ["nic-queue"], ["serialize"], ["propagate"], ["quorum-wait"]. *)

val all_components : component list

val component_index : component -> int
(** The component's position in {!all_components}, for flat
    per-component arrays. *)

type segment = {
  component : component;
  start_time : float;
  stop_time : float;
  replica : int;  (** where the time was spent *)
  phase : string;  (** certificate phase for [Quorum_wait], [""] otherwise *)
}

val duration : segment -> float

type t = {
  replica : int;  (** the committing replica *)
  height : int;
  view : int;
  blocks : int;
  ops : int;
  propose_time : float;  (** the anchor; for a partial span, how far back
                             the walk got *)
  commit_time : float;
  segments : segment list;  (** oldest first, contiguous *)
  complete : bool;  (** did the walk reach a [Propose] event? *)
}

val total : t -> float
(** [commit_time -. propose_time]. *)

val attributed : t -> float
(** Sum of segment durations; equals [total] for a complete span. *)

val quorum_waits : t -> int
(** Certificates on the critical path — the protocol's phase count. *)

val component_total : t -> component -> float

val reconstruct : Trace.event list -> t list
(** One span per [Commit] event, oldest first. Events must be in buffer
    order ({!Trace.events} or a {!Trace_reader} round-trip). *)

