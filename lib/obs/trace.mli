(** Structured trace of consensus and network events.

    Every event is stamped with simulated time, the emitting replica, and
    the replica's view and block height at emission (network-level events
    use [-1] for view/height — they have no protocol context). Events land
    in an in-memory buffer in emission order, which — because the simulator
    never moves time backwards — is also simulated-time order; exporters
    render the buffer as one JSON object per line (JSONL). *)

type kind =
  | Propose of { txs : int }  (** leader broadcast a proposal *)
  | Vote_sent of { phase : string }  (** replica voted; [phase] names the round *)
  | Qc_formed of { phase : string }  (** leader assembled a quorum certificate *)
  | Commit of { blocks : int; ops : int }  (** blocks became final *)
  | View_enter of { cause : string }
      (** entered a view; [cause] is one of ["timeout"], ["rotation"],
          ["fast-forward"], ["sync"] *)
  | View_change_enter  (** began participating in a view change *)
  | View_change_exit  (** leader completed the view change *)
  | Timer_armed of { after : float; cause : string }
  | Timer_fired of { cause : string }
  | Net_queued of {
      id : int;
      src : int;
      dst : int;
      size : int;
      msg : string;
      ready : float;
      depart : float;
      tx : float;
    }
      (** message entered the sender's NIC queue. [id] pairs this event
          with its [Net_delivered]; [ready] is when the sender's CPU handed
          the message over (the event time itself is when the emitting
          handler started); [depart] is when it leaves the NIC (uplink FIFO
          wait); [tx] is the serialization time, so the wire occupies
          [depart, depart + tx] and everything later is propagation *)
  | Net_delivered of { id : int; src : int; dst : int; size : int; msg : string }
      (** the pairing [id] makes queue → deliver matching exact even when
          jitter reorders same-kind messages on one link *)
  | Fault_injected of { label : string }
      (** a fault-scenario step fired, e.g. ["crash 0"] or ["heal"]; the
          replica field is the targeted endpoint, or [-1] for network-wide
          faults (partitions, loss, delay) *)

type event = {
  time : float;  (** simulated seconds *)
  replica : int;
  view : int;
  height : int;
  kind : kind;
}


val to_json : event -> string
(** One self-contained JSON object, no trailing newline. *)

(** Append-only event buffer. *)
type buffer

val create_buffer : unit -> buffer
val add : buffer -> event -> unit

val events : buffer -> event list
(** Oldest first. *)

val write_jsonl : ?run:string -> out_channel -> buffer -> unit
(** One JSON object per line, oldest first. [run] adds a ["run"] field to
    every line so several runs can share one file. *)
