(** The fault-scenario DSL: a typed, time-ordered script of fault events
    that the runtime schedules against the simulation clock.

    A scenario is pure data — this module knows nothing about the
    simulator. [Marlin_runtime.Cluster.apply_scenario] interprets the
    network and crash events against {!Marlin_sim.Netsim.Fault}, and
    [Marlin_runtime.Experiment.run] on a [Scenario] additionally wraps the
    protocol with {!Byzantine} behaviours and measures recovery. *)

(** How a Byzantine replica misbehaves (see {!Byzantine}). *)
type behaviour =
  | Equivocator
      (** as leader, sends conflicting proposals to disjoint halves of the
          other replicas *)
  | Silent_leader  (** as leader, sends nothing at all *)
  | Vote_withholder  (** never votes *)
  | Stale_qc_voter
      (** advertises its oldest view-change snapshot (stale highQC) in
          every VIEW-CHANGE / NEW-VIEW it sends, properly re-signed *)

type event =
  | Crash of int  (** replica stops sending and receiving *)
  | Recover of int  (** a crashed replica rejoins with its old state *)
  | Partition of int list list
      (** split the network into groups that cannot cross-talk; endpoints
          in no group (clients) still reach everyone *)
  | Heal  (** clear partition, loss, duplication and extra delay *)
  | Delay_links of float  (** add seconds of propagation delay everywhere *)
  | Drop_fraction of float  (** drop each message with this probability *)
  | Duplicate of float  (** deliver each message twice with this probability *)
  | Byzantine of int * behaviour
      (** switch a replica's Byzantine behaviour on (requires the protocol
          to have been wrapped with {!Byzantine.wrap}); at time 0 the
          replica is Byzantine from the start *)

val event_label : event -> string
(** Human-readable label, also used for [fault-injected] trace events. *)

val event_target : event -> int
(** The endpoint an event targets, [-1] for network-wide events. *)

type step = { at : float; event : event }

val at : float -> event -> step
(** [at 2.0 (Crash 0)] — the concise scenario-building constructor. *)

type t = private {
  name : string;
  info : string;  (** one-line description *)
  f : int;  (** fault tolerance the scenario is written for ([n = 3f + 1]) *)
  steps : step list;  (** sorted by time *)
  settle_at : float;
      (** the instant from which recovery is measured: the last disruptive
          step (heal, final crash, GST), or the start for scenarios whose
          disruption is permanent (a Byzantine replica) *)
  run_for : float;  (** total simulated duration *)
}

val make :
  name:string -> info:string -> ?f:int -> ?steps:step list ->
  settle_at:float -> run_for:float -> unit -> t
(** Sorts [steps] by time. @raise Invalid_argument on a negative step time
    or [run_for <= settle_at]. *)

val byzantine : t -> (int * behaviour) list
(** Every [Byzantine] step's (replica, behaviour), script order. *)

val has_byzantine : t -> bool

val crashed_at_end : t -> int list
(** Replicas crashed by the script and never recovered (sorted). *)

val first_fault_at : t -> float
(** Time of the first non-Byzantine step, or [settle_at] for purely
    Byzantine scenarios — the start of the measurement window for
    view-change traffic. *)

