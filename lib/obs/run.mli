(** One observed run: the shared trace buffer plus one metrics registry
    per replica, with exporters.

    The runtime creates a [Run.t], hands each replica a {!Sink.t} made
    from it, and points the network simulator at it; after the run the
    exporters render a JSONL trace and a CSV metrics summary. *)

type t

val create : ?trace:bool -> ?windows:float -> n:int -> unit -> t
(** [n] replicas. [trace] (default [false]) allocates the event buffer —
    metrics are always on for a created run. [windows], when given,
    allocates a shared {!Timeseries.t} of that window width (simulated
    seconds) that the sinks and runtime hooks feed; when absent (the
    default) no window state exists and every timeseries hook is a single
    branch. *)

val handle : t -> clock:(unit -> float) -> replica:int -> Sink.handle
val metrics : t -> Metrics.t array

val timeseries : t -> Timeseries.t option
(** The shared windowed timeseries, when the run was created with
    [?windows]. Runtime call sites must match on this option {e inline}
    and only call the [Timeseries.note_*] feeders inside the [Some]
    branch: a wrapper hook taking float arguments would box them even on
    the disabled path, so the guard lives at the caller — disabled runs
    then pay exactly one branch and allocate nothing. *)

val trace_events : t -> Trace.event list
(** Oldest first; empty when tracing was off. *)

val consensus_totals : t -> Metrics.dir_counter * int
(** Consensus traffic ({!Metrics.consensus_sent}) summed over the
    replicas, and the most blocks any one replica committed. *)

(* -- network-layer hooks (called by Netsim when attached) -- *)

val net_queued :
  t -> time:float -> id:int -> src:int -> dst:int -> size:int ->
  ready:float -> depart:float -> tx:float -> Marlin_types.Message.t -> unit
(** A message entered [src]'s NIC queue; counts it as sent when [src] is a
    replica and traces the queueing event. [id] is the simulator's unique
    message id (pairs the event with the matching delivery); [ready] is the
    CPU handoff instant, [depart] the NIC departure, [tx] the serialization
    time — the tags the span profiler needs for exact attribution. *)

val net_delivered :
  t -> time:float -> id:int -> src:int -> dst:int -> size:int ->
  Marlin_types.Message.t -> unit

val fault_injected :
  t -> time:float -> ?target:int -> label:string -> unit -> unit
(** A fault-scenario step fired (traced runs only — no metrics side).
    [target] is the affected endpoint, [-1] (the default) for network-wide
    faults. The runtime's scenario scheduler calls this for every step it
    executes, so fault runs are self-describing in the trace. *)

(* -- exporters -- *)

val write_trace : ?run:string -> out_channel -> t -> unit
(** JSONL, one event per line. *)

val metrics_csv_header : string
(** [label,replica,row,name,msgs,bytes,auths,count,mean,p50,p95,p99,min,max]
    — one header for all row types. *)

val metrics_csv : ?label:string -> t -> string
(** Data rows only (append after {!metrics_csv_header}; several labelled
    runs can share one file). Row types: [sent]/[recv] rows carry
    per-message-kind msgs/bytes/auths; [counter] rows carry one event
    counter in the [msgs] column; [hist] rows carry a latency summary in
    the count..max columns (seconds). *)

