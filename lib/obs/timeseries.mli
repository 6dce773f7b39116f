(** Time-resolved run metrics: fixed-width simulated-time windows.

    A bounded ring of windows (flat preallocated arrays, in the style of
    {!Marlin_analysis.Stats.Reservoir}) that the runtime feeds as the run
    executes: per-window committed operations, arrival-to-commit latency,
    mempool admission outcomes and occupancy, source shedding, and NIC
    uplink backlog. After a traced run, {!bin_segments} folds the span
    profiler's critical-path segments into the same windows, so every
    window also carries cpu / serialize / nic-queue / propagate /
    quorum-wait seconds that sum to the window's attributed span time
    (within 1e-9 s — the binning splits each segment across window
    boundaries exactly).

    The hot-path [note_*] functions are in-place array updates — no
    allocation once created. Whether a run carries a timeseries at all is
    decided at {!Run.create} time; a run without one pays a single branch
    per hook (the zero-cost-when-disabled discipline of {!Sink}).

    Windows are absolute: window [i] covers simulated time
    [[i*width, (i+1)*width)]. An event exactly on a boundary lands in the
    later window (floor semantics). Windows between the first and last
    ever touched are materialized as explicit zeros, never omitted; once
    the ring is full the oldest windows are dropped and writes to them
    ignored. *)

type t

(** One rendered window (a copy — mutating it does not touch the ring). *)
type window = {
  index : int;  (** absolute window number: covers [start_time, stop_time) *)
  start_time : float;
  stop_time : float;
  committed : int;  (** operations whose first commit landed here *)
  latency : Marlin_analysis.Stats.summary;
      (** arrival-to-commit of those operations, seconds *)
  admitted : int;  (** mempool admission outcomes in this window… *)
  duplicate : int;
  rejected : int;  (** …[rejected] pooling full + per-client cap *)
  shed : int;  (** arrivals shed at the source on backpressure *)
  occupancy_peak : int;  (** max mempool occupancy reported in the window *)
  nic_backlog_peak : float;
      (** worst uplink-FIFO wait (seconds) of any message queued here *)
  segment_seconds : float array;
      (** critical-path seconds per component, indexed in
          {!Span.all_components} order; all zeros until {!bin_segments} *)
  attributed : float;
      (** total span-overlap seconds in this window; equals the sum of
          [segment_seconds] within 1e-9 *)
}

val create : ?capacity:int -> width:float -> unit -> t
(** [capacity] (default 512) is the ring size in windows; each window
    keeps a 256-sample latency reservoir.
    @raise Invalid_argument when [width <= 0] or [capacity <= 0]. *)

val is_empty : t -> bool

(* -- hot-path feeds (in-place, no allocation) -- *)

val note_completion : t -> time:float -> latency:float -> unit
(** An operation's first commit at [time], [latency] seconds after its
    arrival (open loop) or submission (closed loop). *)

val note_admission :
  t ->
  time:float ->
  [ `Admitted | `Duplicate | `Rejected_full | `Rejected_client_cap ] ->
  occupancy:int ->
  unit

val note_shed : t -> time:float -> unit

val note_nic_backlog : t -> time:float -> backlog:float -> unit
(** A message joined an uplink FIFO at [time] with [backlog] seconds of
    queue ahead of it (departure minus CPU handoff). *)

(* -- post-hoc attribution -- *)

val bin_segments : t -> Span.t list -> unit
(** Fold the critical-path segments of every {e complete} span into the
    windows, splitting each segment across window boundaries so durations
    are conserved exactly. Partial spans are skipped — their segments do
    not cover their interval, which would break the
    [attributed = sum segment_seconds] invariant. Idempotent only in the
    sense of accumulation: call it once per span set. *)

(* -- reading -- *)

val windows : t -> window list
(** Every window from the first to the last ever touched (bounded by the
    ring capacity), oldest first, untouched ones rendered as explicit
    zeros. Empty list before any feed. *)

val component_seconds : window -> Span.component -> float
(** The window's critical-path seconds for one component (an indexed read
    of [segment_seconds]). *)

val to_json : ?label:string -> t -> string
(** One object: [{"label":…,"width":…,"windows":[…]}] — deterministic, so
    same-seed runs render byte-identically. *)

val pp_window : Format.formatter -> window -> unit
