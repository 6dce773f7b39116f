(** Automated bottleneck attribution: which resource binds at a given
    operating point.

    The classifier joins three measurements an overloaded run produces —
    the windowed critical-path segment shares ({!Timeseries.bin_segments}),
    the drop mix (shed at source + rejected at admission), and the latency
    tail — into one typed verdict with the evidence attached. The rule is
    deliberately simple and deterministic:

    - no attributed critical-path time at all: nothing committed. Drops
      mean admission control choked the intake ([Mempool_backpressure]);
      otherwise the protocol is stuck waiting for certificates that never
      form ([Quorum_wait] — e.g. a livelocked protocol).
    - drop rate above 1% while the p99 latency is still within 1 s (the
      knee's latency cap): the service path is keeping up — admission
      control is what caps goodput ([Mempool_backpressure]).
    - otherwise: the dominant critical-path component (largest share of
      attributed seconds; ties break in {!Span.all_components} order). *)

type t =
  | Cpu
  | Serialize
  | Nic_queue
  | Propagate
  | Quorum_wait
  | Mempool_backpressure

val name : t -> string
(** ["cpu"], ["serialize"], ["nic-queue"], ["propagate"], ["quorum-wait"],
    ["mempool-backpressure"] — the first five match
    {!Span.component_name}. *)

type evidence = {
  windows : int;  (** windows the verdict was computed over *)
  attributed : float;  (** critical-path seconds, all windows *)
  shares : (Span.component * float) list;
      (** fraction of [attributed] per component, all five, in
          {!Span.all_components} order *)
  drop_rate : float;
  shed : int;
  rejected : int;
  peak_occupancy : int;
  latency_p99 : float;  (** seconds *)
}

type verdict = { bottleneck : t; evidence : evidence }

val classify :
  drop_rate:float ->
  shed:int ->
  rejected:int ->
  peak_occupancy:int ->
  latency_p99:float ->
  Timeseries.t ->
  verdict
(** The drop/occupancy/latency arguments come from the run's open-loop
    accounting (exact counters, not window samples); the timeseries
    supplies the segment shares. *)

val verdict_to_json : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
