(** The replica skeleton shared by every protocol in this library.

    Marlin, HotStuff, PBFT and the insecure two-phase strawman differ in
    their phase rules only. Everything around them lives here: the common
    state (the lock, the highQC and the leader's in-flight block
    included), commit handling, proposing a fresh child of block(highQC),
    the leader's certificate tails, the view-change message store,
    HotStuff's NEW-VIEW collection and, through {!Drive}, state transfer,
    verified commit certificates, fast-forward to a later view and the
    entry points that close a protocol under its own messages. *)

open Marlin_types

type 'a view_msgs
(** View-change messages by view: one ['a] per sender. *)

val view_msgs : unit -> 'a view_msgs

type t = private {
  cfg : Consensus_intf.config;
  auth : Auth.t;
  store : Block_store.t;
  com : Committer.t;
  votes : Vote_collector.t;
  voted : (string, int) Hashtbl.t;
      (** this view's own votes: the phases voted per raw digest, as a bit
          set; use {!voted} and {!first_vote} *)
  pacemaker : Pacemaker.t;
  mutable cview : int;
  mutable locked : Qc.t;
      (** the lock; raise it with {!raise_lock} *)
  mutable high : High_qc.t;
      (** the highQC; raise it with {!raise_high}, or set it with
          {!adopt_high} *)
  mutable in_flight : Marlin_crypto.Sha256.t option;
      (** leader: the block proposed and not yet certified; {!enter}
          clears it *)
  mutable collecting : bool;
      (** leader: collecting the view change's quorum; {!enter} sets it
          when a view change starts, {!exit_view_change} clears it *)
  new_views : Qc.t view_msgs;  (** the QC each sender reported, by view *)
}

val create : Consensus_intf.config -> t
val me : t -> int
val leader_of : t -> int -> int
val is_leader : t -> bool

val msg : t -> Message.payload -> Message.t
(** A message from this replica in its current view. *)

val from_leader : t -> Message.t -> bool
(** Sent in the current view by its leader. *)

val to_leader : t -> Message.t -> bool
(** Sent for the current or a later view that this replica leads. *)

val raise_lock : t -> Qc.t -> unit
(** Lock on the QC if it outranks the lock; an equal rank keeps the lock. *)

val raise_high : t -> Qc.t -> unit
(** Adopt the QC as the highQC if it outranks the highQC's primary QC; an
    equal rank keeps the highQC. *)

val adopt_high : t -> High_qc.t -> unit
(** Set the highQC outright, with no rank compare. Marlin's four callers,
    one per case of the paper:
    - a replica accepting a PROPOSE adopts its justify, which only has
      to rank at or above the lock;
    - the leader adopts the prepareQC it has just formed from PREPARE
      votes;
    - the happy-path view change: every VIEW-CHANGE reports the same last
      block, and the new leader combines their partial signatures into a
      prepareQC;
    - the unhappy view change: the new leader adopts the pre-prepareQC it
      formed, paired with the [vc] when the block is virtual (the
      [(qc, vc)] pair). *)

(** {1 Commits} *)

val finish_commits : t -> Committer.result -> Consensus_intf.action list
(** Committer output as actions. A commit resets the pacemaker, emits a
    [commit] sink event and re-arms the view timer. *)

val note_block : t -> Block.t -> Consensus_intf.action list
val deliver_commit : t -> Qc.t -> Consensus_intf.action list

(** {1 Proposals and votes}

    Every protocol proposes, votes and forms certificates through these
    functions, so each step emits its sink event in exactly one place. *)

val propose : t -> Block.t -> justify:High_qc.t -> Consensus_intf.action
(** Emit the [propose] sink event and broadcast the proposal. *)

val vote : t -> kind:Qc.phase -> ?locked:Qc.t -> Qc.block_ref -> Message.t
(** Sign a [kind] vote for the block in the current view and emit the
    [vote] sink event. *)

val vote_to_leader :
  t -> kind:Qc.phase -> ?locked:Qc.t -> Qc.block_ref -> Consensus_intf.action list
(** {!vote}, sent to the view's leader. *)

val voted : t -> Qc.phase -> Marlin_crypto.Sha256.t -> bool
(** Has this replica recorded a [phase] vote for the digest in this view? *)

val first_vote : t -> Qc.phase -> Marlin_crypto.Sha256.t -> bool
(** Record a [phase] vote for the digest in this view; [false] if one was
    already recorded. {!enter} clears the record. *)

val add_vote :
  t -> Vote_collector.t -> phase:Qc.phase -> block:Qc.block_ref ->
  Marlin_crypto.Threshold.partial -> Vote_collector.outcome
(** Count a vote of the current view in the given collector; a [Quorum]
    emits the [qc_formed] sink event. *)

val verify_single : Auth.t -> High_qc.t -> bool
(** A [Single] justify whose QC verifies; [Paired] never does. *)

(** {1 The leader} *)

val broadcast_cert : t -> Qc.t -> Consensus_intf.action
(** Broadcast the certificate. *)

val idle_leader : t -> bool
(** This view's leader, with no block in flight and no view change to
    collect. *)

val propose_in_flight : t -> Block.t -> Consensus_intf.action list
(** {!propose} the block with the highQC as justify and mark it in
    flight. *)

val propose_child : t -> chained:bool -> Consensus_intf.action list
(** Pull a batch and {!propose_in_flight} a child of block(highQC) that
    carries it. With no batch, a chained leader still proposes an empty
    child while an operation-bearing block above the committed head hangs
    on block(highQC)'s branch; otherwise nothing. *)

val commit_tail :
  t -> Qc.t -> propose:(unit -> Consensus_intf.action list) ->
  Consensus_intf.action list
(** A leader's commitQC: clear the in-flight block if the QC certifies it,
    broadcast the QC, then [propose]. *)

val chained_tail :
  t -> Qc.t -> Consensus_intf.action list ->
  propose:(unit -> Consensus_intf.action list) -> Consensus_intf.action list
(** A chained leader's prepareQC, with the commits it caused: clear the
    in-flight block, then [propose]; broadcast the QC only when there is
    nothing to propose. *)

(** {1 View change} *)

type stored =
  | Duplicate  (** the sender already reported for that view *)
  | Stored
  | Join
      (** f+1 senders now report a later view: the caller should enter
          it (a [view-enter] sink event with cause [sync] is emitted) *)

val store_view_msg : t -> 'a view_msgs -> Message.t -> 'a -> stored

val view_quorum : t -> 'a view_msgs -> 'a list option
(** The current view's messages, newest first, once a quorum arrived. *)

val enter : t -> 'a view_msgs -> int -> send:bool -> Consensus_intf.action
(** Set the current view; clear the in-flight block; drop votes, the vote
    record and view-change messages of older views. [send] means a view
    change is under way: it emits the [view-change-enter] sink event, and
    a leader starts collecting. Returns the view timer. *)

val exit_view_change : t -> unit
(** Stop collecting and emit the [view-change-exit] sink event. *)

(** {2 HotStuff's NEW-VIEW collection}

    Every replica sends its highQC to the new leader in a NEW-VIEW
    message; once a quorum arrived, the leader raises its highQC over
    them, exits the view change and calls [propose]. *)

val on_new_view :
  t -> propose:(unit -> Consensus_intf.action list) -> Message.t -> Qc.t ->
  Consensus_intf.action list
(** A NEW-VIEW message carrying the QC. *)

val enter_new_view :
  t -> propose:(unit -> Consensus_intf.action list) -> int -> send:bool ->
  Consensus_intf.action list
(** {!enter} the view; with [send], report the highQC to its leader. *)

(** {1 Entry points} *)

type replica = t

module type PHASES = sig
  type t

  val replica : t -> replica

  val verify_justify : (Auth.t -> High_qc.t -> bool) option
  (** Fast-forward: a proposal whose justify passes this check, or a
      verified certificate, formed in a later view proves a quorum moved
      there, so the replica enters that view (a [view-enter] event with
      cause [fast-forward]). [None] never fast-forwards. *)

  val step : t -> Message.t -> Consensus_intf.action list
  (** Handle one message; self-addressed output is fed back by {!Drive}.
      {!Drive} answers [Fetch], [Fetch_resp] and commit certificates
      itself and never passes them here. *)

  val try_propose : t -> Consensus_intf.action list
  val enter_view : t -> int -> send:bool -> Consensus_intf.action list
  (** Enter a view; [send] starts a view change. *)
end

(** The entry points. Each delivers self-addressed sends and the local
    copy of broadcasts to [P.step] until none are left, so a [Broadcast]
    in the result goes to every {e other} replica. *)
module Drive (P : PHASES) : sig
  val on_message : P.t -> Message.t -> Consensus_intf.action list
  val on_start : P.t -> Consensus_intf.action list
  val on_new_payload : P.t -> Consensus_intf.action list
  val force_view_change : P.t -> Consensus_intf.action list
  val on_view_timeout : P.t -> Consensus_intf.action list
  val current_view : P.t -> int
  val is_leader : P.t -> bool
  val committed_head : P.t -> Block.t
  val committed_count : P.t -> int
  val block_store : P.t -> Block_store.t
  val locked_qc : P.t -> Qc.t
  val high_qc : P.t -> High_qc.t
  val cpu_meter : P.t -> Cpu_meter.t
end
