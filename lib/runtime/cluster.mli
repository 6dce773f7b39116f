(** A full simulated deployment: n replicas running a consensus protocol
    plus a load workload, over the {!Marlin_sim.Netsim} network, with
    CPU, disk and bandwidth accounting — the machinery behind every
    figure-reproducing benchmark.

    Replicas execute committed operations (deduplicated by client/seq).
    The workload is either closed-loop — clients complete a request on
    f+1 matching replies and immediately submit the next, as in the
    paper's throughput/latency sweeps — or open-loop: generator sources
    offer operations on an {!Marlin_workload.Arrival} process clock
    regardless of completions, shedding at the source when the contact
    replica's bounded mempool signals backpressure. *)

type params = {
  n : int;
  f : int;
  workload : Marlin_workload.Workload.t;
      (** how load is offered — see {!Marlin_workload.Workload} *)
  mempool : Mempool.Config.t;
      (** admission-control limits for every replica's pool
          ({!Mempool.Config.unbounded} preserves pre-bounded behaviour) *)
  op_size : int;
      (** bytes per operation body and per reply (150 in the paper, 0 for
          no-op) *)
  batch_max : int;  (** max operations per block *)
  cost_model : Marlin_crypto.Cost_model.t;
  base_timeout : float;
  max_timeout : float;
  rotation : float option;  (** rotate leaders every [t] seconds *)
  seed : int;
  obs : Marlin_obs.Run.t option;
      (** when set, per-replica sinks are attached to the protocols, timer
          events are emitted by the runtime, and the network simulator
          feeds the run's message counters and trace *)
}

val default_params : params
(** The paper's testbed defaults: f = 1 (n = 4), a closed loop of 16
    clients, unbounded mempool, 150-byte ops and replies, 400-op batches,
    ECDSA costs, 1 s base timeout, no rotation. The network
    ({!Marlin_sim.Netsim.default_config}: 40 ms, 200 Mbps), the disk
    ({!Marlin_sim.Sim_disk}: LevelDB-like, a checkpoint every 5000
    blocks) and the 2 µs CPU cost of executing one operation are the
    testbed's fixed values, not parameters. *)

val params_for_f : ?workload:Marlin_workload.Workload.t -> int -> params
(** [params_for_f f] is {!default_params} with [n = 3f + 1]. *)

(** Aggregate client-visible open-loop counters over the current
    measurement window (since the last [open_loop_reset_window]). *)
type open_stats = {
  generated : int;  (** arrivals the workload offered *)
  sent : int;  (** operations actually put on the wire (not shed) *)
  shed : int;  (** shed at the source on contact-replica backpressure *)
  rejected : int;
      (** rejected by admission control at the contact replica (relayed
          copies rejected elsewhere leave the op pooled at the contact and
          are not client-visible drops) *)
  completed : int;  (** operations committed (first commit anywhere) *)
  latency : Marlin_analysis.Stats.summary;
      (** submit to first commit, seconds — measured per offered
          operation, so there is no coordinated omission *)
  peak_occupancy : int;
      (** max mempool occupancy observed at any replica admission *)
  inflight : int;  (** sent, neither rejected nor committed yet *)
}

module Make (P : Marlin_core.Consensus_intf.PROTOCOL) : sig
  type t

  val create : params -> t
  (** @raise Invalid_argument naming the field when [batch_max < 1],
      [op_size < 0], or a [rotation] period is not finite and positive;
      and through
      {!Marlin_core.Consensus_intf.Config.make} when [n], [f] or the
      timeouts are invalid. *)

  val sim : t -> Marlin_sim.Sim.t
  val net : t -> Marlin_sim.Netsim.t

  val run : t -> until:float -> unit
  (** Start (if not yet started) and run the simulation to [until]. *)

  val crash : t -> at:float -> int -> unit
  (** Schedule a crash fault. *)

  val apply_scenario :
    ?on_byzantine:(int -> Marlin_faults.Scenario.behaviour -> unit) ->
    t ->
    Marlin_faults.Scenario.t ->
    unit
  (** Interpret a fault scenario against this cluster: crash/recover and
      the network events map onto {!Marlin_sim.Netsim.Fault}; each step is
      recorded as a [fault-injected] trace event when the cluster is
      observed. [Byzantine] steps are handed to [on_byzantine] (the caller
      must have wrapped the protocol with [Marlin_faults.Byzantine.wrap] —
      see [Experiment.run] with [Scenario]).

      Call before {!run}: steps at time 0 (or earlier) execute
      immediately so they are in force for the first protocol callback.
      @raise Invalid_argument on Byzantine steps without [on_byzantine]. *)

  val protocol : t -> int -> P.t
  (** Replica [id]'s protocol state (introspection). *)

  (* -- measurements -- *)

  val committed_ops_in : t -> replica:int -> since:float -> until:float -> int
  (** Operations executed by [replica] in the window. *)

  val latencies_in : t -> since:float -> until:float -> float list
  (** Closed-loop client request latencies completed in the window
      (seconds); empty for open-loop workloads — use {!open_loop_stats}. *)

  val open_loop_reset_window : t -> unit
  (** Zero the open-loop measurement window (call at the end of warmup:
      counters become deltas from this instant, the latency reservoir and
      the occupancy high-water mark restart).
      @raise Invalid_argument on a closed-loop workload. *)

  val open_loop_stats : t -> open_stats
  (** @raise Invalid_argument on a closed-loop workload. *)

  val mempool_stats : t -> Mempool.stats
  (** Admission counters summed over all replicas (peak occupancy is the
      max across replicas), since cluster creation — nonzero only when
      {!params.mempool} actually bounds the pool or duplicates arrive. *)

  val total_executed : t -> replica:int -> int

  val first_commit_after : t -> replica:int -> float -> float option
  (** Time of the first block committed at [replica] after the instant. *)

  val view_change_start : t -> float option
  (** When the first replica escalated a timeout into a view change. *)

  val check_agreement : t -> bool
  (** All live replicas' committed chains are prefixes of the longest. *)

  val pre_prepare_seen : t -> bool
  (** Did any PRE-PREPARE message cross the network (i.e., did a Marlin
      view change take the unhappy path)? *)
end
