(** Experiment drivers: the reusable measurement procedures behind the
    paper's figures (throughput/latency sweeps, peak throughput,
    view-change latency, rotating leaders under crash faults), and their
    result records with shared printers and JSON renderers so every
    harness reports them the same way. *)

type throughput_result = {
  clients : int;
  throughput : float;  (** committed operations per second, steady state *)
  latency : Marlin_analysis.Stats.summary;  (** client latency, seconds *)
  agreement : bool;  (** did all live replicas agree? *)
  executed : int;  (** ops executed in the window at the probe replica *)
}

type vc_result = {
  vc_latency : float;  (** seconds, view-change start to first commit *)
  unhappy : bool;  (** did the PRE-PREPARE phase run (Marlin only)? *)
  vc_bytes : int;  (** consensus bytes on the wire during the view change *)
  vc_authenticators : int;
  vc_messages : int;
}

type fault_result = {
  scenario : string;  (** scenario name *)
  recovered : bool;  (** did the probe replica commit after [settle_at]? *)
  recovery_latency : float;
      (** seconds from the scenario's [settle_at] to the probe replica's
          first commit afterwards; [-1] when it never recovered *)
  vc_messages : int;
      (** consensus messages from the first fault to the recovery commit *)
  vc_bytes : int;
  vc_authenticators : int;
  committed : int;  (** total ops executed at the probe replica *)
  agreement : bool;
  latency : Marlin_analysis.Stats.summary;
      (** client latency over the whole run — the fault's commit-latency
          impact *)
}

type open_loop_result = {
  workload : string;  (** {!Marlin_workload.Workload.label} of the load *)
  offered : float;  (** mean offered load, ops/s *)
  goodput : float;  (** unique ops committed per second in the window *)
  generated : int;  (** arrivals offered in the window *)
  sent : int;  (** put on the wire (not shed) *)
  shed : int;  (** shed at the source on backpressure *)
  rejected : int;  (** rejected by admission control at the contact *)
  drop_rate : float;  (** (shed + rejected) / generated *)
  peak_occupancy : int;  (** max mempool occupancy at any replica *)
  latency : Marlin_analysis.Stats.summary;
      (** submit to first commit, seconds, with p999 — measured per
          offered op: no coordinated omission *)
  agreement : bool;
}

val pp_throughput : Format.formatter -> throughput_result -> unit
val pp_view_change : Format.formatter -> vc_result -> unit
val pp_fault : Format.formatter -> fault_result -> unit
val pp_open_loop : Format.formatter -> open_loop_result -> unit
val throughput_to_json : throughput_result -> string
val view_change_to_json : vc_result -> string
val fault_to_json : fault_result -> string
val open_loop_to_json : open_loop_result -> string

(** {1 The driver} *)

(** What one run measures, and so which result record it returns. Every
    case builds a fresh cluster from [params]; observation (metrics,
    trace, windows) comes only from [params.obs]. *)
type _ measure =
  | Closed : { warmup : float; duration : float; crashed : int list }
      -> throughput_result measure
      (** Closed-loop steady state: crash the [crashed] replicas at time 0
          (rotating-leader experiments, Figure 10j), run for [warmup +
          duration] simulated seconds and measure over the window after
          [warmup], at the highest-id replica not crashed. *)
  | Open : { warmup : float; duration : float } -> open_loop_result measure
      (** Offered load, with the open-loop workload in [params.workload]:
          reset the measurement window at [warmup], and report goodput,
          drop accounting, mempool peak occupancy and the
          submit-to-first-commit latency tail over the steady window. *)
  | View_change : { force_unhappy : bool } -> vc_result measure
      (** Warm the cluster up, crash the leader, and measure the paper's
          view-change latency: from the instant a replica escalates its
          timeout to the first block committed afterwards, plus the
          consensus traffic in between. With [force_unhappy], the doomed
          leader's final proposals reach a single replica, so view-change
          snapshots disagree and Marlin's unhappy path (PRE-PREPARE)
          runs. *)
  | Scenario : Marlin_faults.Scenario.t -> fault_result measure
      (** Run a fault scenario end to end: wrap the protocol with
          [Marlin_faults.Byzantine.wrap] when the script has Byzantine
          steps, interpret the script via [Cluster.apply_scenario], and
          measure recovery latency at the highest-id replica neither
          crashed at the end nor Byzantine, plus the consensus traffic
          between the first fault and the recovery commit. [params]
          should be sized for the scenario's [f]. *)

val run :
  Marlin_core.Consensus_intf.protocol -> params:Cluster.params ->
  'a measure -> 'a
(** One run of [measure]. When [params.obs] is traced and windowed, the
    span profiler's critical-path segments are folded into its windows
    after the run, so [Marlin_obs.Run.timeseries] returns per-window
    commits, latency, drop mix, occupancy, NIC backlog {e and} segment
    shares.
    @raise Invalid_argument for [Open] when [params.workload] is
    closed-loop. *)

val critical_path :
  ?label:string -> Marlin_obs.Run.t -> Marlin_obs.Critical_path.t
(** Span reconstruction + critical-path attribution over the run's trace
    (empty analysis when the run was not traced). *)

val profile_json :
  label:string -> sim_seconds:float -> throughput_result ->
  Marlin_obs.Run.t -> string
(** The per-protocol record of the machine-readable bench output:
    throughput, commit-latency histogram, consensus messages and
    authenticators per committed block, and — when traced — the
    critical-path phase breakdown ([null] otherwise). *)

val sweep :
  Marlin_core.Consensus_intf.protocol -> params:Cluster.params ->
  warmup:float -> duration:float -> client_counts:int list ->
  throughput_result list
(** One [Closed] point, nothing crashed, per client count (a figure
    10a-f curve). *)

val peak :
  ?latency_cap:float ->
  throughput_result list ->
  throughput_result * [ `Within_cap | `Fallback ]
(** The point with the highest throughput among those whose mean latency is
    within [latency_cap] (default: none). The paper's throughput/latency
    figures plot latency up to 1 s, so its "peak throughput" is the best
    point in that range; pass [~latency_cap:1.0] to match. When no point
    qualifies the overall maximum is returned tagged [`Fallback] — a
    saturated point, which callers must not report as a sustainable peak.
    @raise Invalid_argument on the empty list. *)

val open_loop_sweep :
  Marlin_core.Consensus_intf.protocol -> params:Cluster.params ->
  warmup:float -> duration:float -> rates:float list ->
  open_loop_result list
(** One [Open] point per offered rate ([params.workload]
    re-targeted via {!Marlin_workload.Workload.with_rate}) — the
    goodput-vs-offered-load curve whose knee {!knee} finds. *)

val knee :
  ?latency_cap:float ->
  open_loop_result list ->
  open_loop_result * [ `Within_cap | `Fallback ]
(** Max sustainable throughput: the highest-goodput point whose p99
    latency is within [latency_cap] (default 1 s). [`Fallback] means every
    point blew the cap — the curve never left saturation, so the returned
    maximum is not sustainable.
    @raise Invalid_argument on the empty list. *)

(* -- bottleneck attribution at the knee -- *)

type attributed_point = {
  point : open_loop_result;
  verdict : Marlin_obs.Bottleneck.verdict;
  timeseries : Marlin_obs.Timeseries.t;
}

type attribution = {
  protocol : string;  (** the caller's display name for the protocol *)
  n : int;
  knee_point : open_loop_result;  (** from the cheap untraced ladder *)
  sustainable : bool;  (** was the knee within the latency cap? *)
  at_knee : attributed_point;  (** re-run, traced, at the knee rate *)
  past_knee : attributed_point;  (** re-run just past the knee — what broke *)
}

val what_breaks_first : attribution -> Marlin_obs.Bottleneck.t
(** The past-knee verdict: the resource that binds once the offered load
    exceeds the sustainable rate. *)

val attribute_knee :
  ?latency_cap:float -> ?window:float -> ?drop_threshold:float ->
  Marlin_core.Consensus_intf.protocol -> name:string ->
  params:Cluster.params -> warmup:float -> duration:float ->
  rates:float list -> attribution
(** Run the open-loop ladder ({!open_loop_sweep} over [rates], untraced —
    locating the knee must not pay tracing costs), find the {!knee} under
    [latency_cap] (default 1 s), then re-run at the knee rate and at the
    next ladder rate above it (knee × 1.5 when the knee is the top rung),
    each traced with windows of width [window] (default 0.25 s), and
    {!Marlin_obs.Bottleneck.classify} both points. *)

val attributed_point_to_json : ?windows:bool -> attributed_point -> string
(** [windows] (default false) inlines the full per-window timeseries. *)

val attribution_to_json : attribution -> string
(** The marlin-bench/1 record: protocol, n, sustainability, the headline
    verdict, the knee point, and both attributed points (per-window
    timeseries inlined for the past-knee point). *)
