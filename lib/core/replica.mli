(** The replica skeleton shared by every protocol in this library.

    Marlin, HotStuff, PBFT and the insecure two-phase strawman differ in
    their phase logic only. Everything around it lives here: the common
    state, commit handling, the view-change message store and (through
    {!Drive}) fast-forward to a later view and the entry points that
    close a protocol under its own messages. *)

open Marlin_types

type t = {
  cfg : Consensus_intf.config;
  auth : Auth.t;
  store : Block_store.t;
  com : Committer.t;
  votes : Vote_collector.t;
  pacemaker : Pacemaker.t;
  mutable cview : int;
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

(** {1 Commits} *)

val finish_commits : t -> Committer.result -> Consensus_intf.action list
(** Committer output as actions. A commit resets the pacemaker, emits a
    [commit] sink event and re-arms the view timer. *)

val note_block : t -> Block.t -> Consensus_intf.action list
val deliver_commit : t -> Qc.t -> Consensus_intf.action list

val needs_flush : t -> chained:bool -> Qc.block_ref -> bool
(** A chained leader with no payload still proposes an empty block while
    an operation-bearing block above the committed head hangs on [tip]'s
    branch. Always [false] unless [chained]. *)

(** {1 Votes} *)

val phase_label : Qc.phase -> string

val vote : t -> kind:Qc.phase -> ?locked:Qc.t -> Qc.block_ref -> Message.t
(** Sign a [kind] vote for the block in the current view and emit the
    [vote] sink event. *)

val vote_to_leader :
  t -> kind:Qc.phase -> ?locked:Qc.t -> Qc.block_ref -> Consensus_intf.action list
(** {!vote}, sent to the view's leader. *)

val first_vote : (string, unit) Hashtbl.t -> string -> bool
(** Record [key] in the per-view vote table; [false] if already there. *)

val verify_single : Auth.t -> High_qc.t -> bool
(** A [Single] justify whose QC verifies; [Paired] never does. *)

(** {1 View change} *)

type 'a view_msgs
(** View-change messages by view: one ['a] per sender. *)

val view_msgs : unit -> 'a view_msgs

type stored =
  | Duplicate  (** the sender already reported for that view *)
  | Stored
  | Join
      (** f+1 senders now report a later view: the caller should enter
          it (a [view-enter] sink event with cause [sync] is emitted) *)

val store_view_msg : t -> 'a view_msgs -> Message.t -> 'a -> stored

val view_quorum : t -> 'a view_msgs -> 'a list option
(** The current view's messages, newest first, once a quorum arrived. *)

val enter : t -> 'a view_msgs -> int -> unit
(** Set the current view; drop votes and view-change messages of older
    views. *)

val view_timer : t -> send:bool -> Consensus_intf.action
(** The timer armed on view entry; [send] means a view change is under
    way. *)

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
  (** Handle one message; self-addressed output is fed back by {!Drive}. *)

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
  val cpu_meter : P.t -> Cpu_meter.t
end
