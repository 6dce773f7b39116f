(** Per-replica metrics registry: message/byte/authenticator counters by
    message kind and direction, protocol-event counters, and sim-time
    histograms for proposal-to-commit and view-change latency.

    All updates are plain mutations and only happen when a sink is
    installed, so a run without observability pays nothing. The latency
    histograms are bounded reservoirs ({!Marlin_analysis.Stats.Reservoir}),
    so memory stays flat however long the run: a [--full] sweep committing
    millions of blocks keeps 4096 commit samples per replica, with exact
    streaming count/mean/min/max. *)

module Stats = Marlin_analysis.Stats

type dir_counter = { mutable msgs : int; mutable bytes : int; mutable auths : int }

type t

val create : replica:int -> t
val replica : t -> int

(* -- message counters (fed by the network layer) -- *)

val count_sent : t -> size:int -> Marlin_types.Message.t -> unit
val count_recv : t -> size:int -> Marlin_types.Message.t -> unit

val kinds : t -> string list
(** Message kinds seen so far, sorted. *)

val sent : t -> kind:string -> dir_counter
val recv : t -> kind:string -> dir_counter
(** Zero counters for kinds never seen. *)

val consensus_sent : t -> dir_counter
(** Totals over consensus message kinds only (no client traffic, no state
    transfer). *)

val is_consensus_message : Marlin_types.Message.t -> bool
(** Does the message belong to the consensus protocol proper — proposals,
    votes, certificates, view changes — as opposed to client traffic and
    state transfer? The classification behind the paper's view-change
    communication measurements. *)

(* -- protocol-event counters (fed by protocol sinks) -- *)

val note_propose : t -> unit
(** This replica proposed a block (counter only). *)

val note_proposal_seen : t -> height:int -> time:float -> unit
(** First sight of a proposal at this height (leader: when proposing;
    replica: when voting) — opens the proposal-to-commit measurement. *)

val note_qc : t -> unit
val note_commit : t -> height:int -> blocks:int -> ops:int -> time:float -> unit
(** Closes every open proposal measurement at or below [height], and any
    open view-change measurement. *)

val note_view_change_enter : t -> time:float -> unit
val note_view_change_exit : t -> time:float -> unit
val note_timer_fired : t -> unit

val note_admission :
  t ->
  [ `Admitted | `Duplicate | `Rejected_full | `Rejected_client_cap ] ->
  occupancy:int ->
  unit
(** One mempool admission decision at this replica; [occupancy] (measured
    after the decision) feeds the high-water mark. *)

val proposals : t -> int
val qcs : t -> int
val blocks_committed : t -> int
val ops_committed : t -> int
val view_changes : t -> int
val timer_fires : t -> int
val ops_admitted : t -> int
val ops_duplicate : t -> int
val ops_rejected_full : t -> int
val ops_rejected_client_cap : t -> int

val mempool_peak_occupancy : t -> int
(** Highest mempool occupancy observed at an admission. *)

(* -- histograms -- *)

val commit_latency : t -> Stats.summary
(** Proposal first seen to commit, seconds of simulated time. *)

val vc_latency : t -> Stats.summary
(** View-change enter to completion (leader handoff or next commit). *)
