(** Protocol messages for Marlin, HotStuff and the client/replica runtime.

    One message type serves every protocol in the repository; each protocol
    handles the constructors it understands and ignores the rest. The
    mapping to the paper's message names:

    - Marlin PREPARE (leader → all): {!constructor-Propose}
    - Marlin PREPARE/COMMIT responses (replica → leader): {!constructor-Vote}
      with kind [Prepare] / [Commit]
    - Marlin COMMIT broadcast (carries the prepareQC) and commitQC forward:
      {!constructor-Phase_cert} — the carried QC's phase tells which
    - Marlin VIEW-CHANGE: {!constructor-View_change}
    - Marlin PRE-PREPARE (one or two shadow proposals):
      {!constructor-Pre_prepare}; responses are {!constructor-Vote} with
      kind [Pre_prepare] (Case R2 attaches the replica's lockedQC in
      [locked])
    - HotStuff NEW-VIEW: {!constructor-New_view}; its PREPARE is
      {!constructor-Propose}; its PRE-COMMIT/COMMIT/DECIDE broadcasts are
      {!constructor-Phase_cert}; votes are {!constructor-Vote}. *)

type payload =
  | Propose of { block : Block.t; justify : High_qc.t }
  | Vote of {
      kind : Qc.phase;
      block : Qc.block_ref;
      partial : Marlin_crypto.Threshold.partial;
      locked : Qc.t option;
    }
  | Phase_cert of Qc.t
  | View_change of {
      last : Block.summary;
      justify : High_qc.t;
      parsig : Marlin_crypto.Threshold.partial;
    }
  | Pre_prepare of { proposals : Block.t list }
      (** One or two proposals; when two, they are shadow blocks sharing
          one payload, and {!wire_size} charges the payload once. *)
  | New_view of { justify : Qc.t }
  | New_view_proof of { justify : Qc.t; proof : Qc.t list }
      (** PBFT-style NEW-VIEW: the chosen certificate together with the
          quorum of view-change certificates justifying it — the O(n)
          payload that makes classic view changes quadratic overall. *)
  | Fetch of { digest : Marlin_crypto.Sha256.t }
      (** request a missing block body (state transfer) *)
  | Fetch_resp of { block : Block.t }
  | Client_op of Operation.t
  | Client_reply of { client : int; seq : int }

type t = { sender : int; view : int; payload : payload }

val make : sender:int -> view:int -> payload -> t
val encode_string : t -> string
val decode_string : string -> t

val wire_size : sig_bytes:int -> t -> int
(** Accounting size; [sig_bytes] is the combined-signature wire size from
    the {!Marlin_crypto.Cost_model} in force. *)

val authenticators : t -> int
(** Number of authenticators (partial or combined signatures) the message
    carries — the unit of the paper's authenticator complexity. *)

val op_count : t -> int
(** Number of client operations the message carries (the payload of a
    proposal, one for a client op, zero otherwise). The simulator uses
    this to account for operation body bytes without materializing
    them. *)

val type_name : t -> string
val pp : Format.formatter -> t -> unit
