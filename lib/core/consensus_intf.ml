(** The interface every consensus protocol in this repository implements.

    Protocols are deterministic state machines: the runtime (or a test)
    feeds them messages and timer expirations, and they return a list of
    {!action}s. All I/O — networking, timers, persistence, client replies —
    happens outside, which is what makes the protocols testable against
    hand-built adversarial schedules and pluggable into the simulator. *)

open Marlin_types

type config = {
  id : int;  (** this replica's index, [0 .. n-1] *)
  n : int;
  f : int;  (** tolerated Byzantine faults; [n >= 3f + 1] *)
  keychain : Marlin_crypto.Keychain.t;
  cost : Marlin_crypto.Cost_model.t;
  get_batch : unit -> Batch.t;
      (** pull the next batch of client operations (may be empty) *)
  has_pending : unit -> bool;
      (** are client operations waiting? drives the "should the view timer
          escalate to a view change" decision *)
  base_timeout : float;  (** initial view-timer duration, seconds *)
  max_timeout : float;  (** backoff cap *)
  obs : Marlin_obs.Sink.handle;
      (** observability sink; [Marlin_obs.Sink.none] disables emission *)
}

let quorum cfg = cfg.n - cfg.f

(** The [f + 1] "at least one honest replica" threshold — view-change
    echo adoption and client-reply matching. Protocol code must take
    thresholds from here or {!quorum}; the quorum-provenance lint flags
    any re-derived arithmetic. *)
let weak_quorum cfg = cfg.f + 1

(** Round-robin leader schedule. *)
let leader_of cfg view = view mod cfg.n

(** Why a protocol asked for its view timer to be (re)armed — carried on
    {!Timer} actions so the runtime and traces can label timers without
    guessing from protocol state. *)
type timer_cause =
  | View_progress  (** normal watchdog while the view makes progress *)
  | View_change  (** waiting out a view change / leader handoff *)
  | Backoff  (** exponential-backoff re-arm after a timeout *)

let timer_cause_label = function
  | View_progress -> "view-progress"
  | View_change -> "view-change"
  | Backoff -> "backoff"

type action =
  | Send of { dst : int; msg : Message.t }
  | Broadcast of Message.t
      (** to every {e other} replica — protocols process their own copy
          internally before returning, so the runtime must not echo
          broadcasts back to the sender *)
  | Commit of Block.t list  (** newly committed blocks, oldest first *)
  | Timer of { duration : float; cause : timer_cause }
      (** (re)arm the view timer for [duration] seconds *)

let timer ?(cause = View_progress) duration = Timer { duration; cause }

module Config = struct
  (** Smart constructor for {!config}. Validates the quorum arithmetic
      ([f >= 0], [n >= 3f + 1]), the index range, that [keychain] holds
      exactly [n] replica keys and that [0 < base_timeout <= max_timeout]
      with [base_timeout] finite (NaN fails), and fills in the defaults the record literal forced
      every call site to repeat. @raise Invalid_argument otherwise. *)
  let make ?(base_timeout = 1.0) ?(max_timeout = 16.0)
      ?(cost = Marlin_crypto.Cost_model.ecdsa_group)
      ?(get_batch = fun () -> Batch.empty) ?(has_pending = fun () -> false)
      ?(obs = Marlin_obs.Sink.none) ~id ~n ~f ~keychain () =
    if f < 0 then invalid_arg (Printf.sprintf "Config.make: f = %d < 0" f);
    (* n >= 3f + 1, written so that no f overflows it *)
    if n < 1 || (n - 1) / 3 < f then
      invalid_arg (Printf.sprintf "Config.make: n = %d < 3f + 1 (f = %d)" n f);
    if id < 0 || id >= n then
      invalid_arg (Printf.sprintf "Config.make: id = %d not in [0, %d)" id n);
    if Marlin_crypto.Keychain.n keychain <> n then
      invalid_arg
        (Printf.sprintf "Config.make: keychain holds %d keys, n = %d"
           (Marlin_crypto.Keychain.n keychain) n);
    if
      not
        (0. < base_timeout && Float.is_finite base_timeout
       && base_timeout <= max_timeout)
    then
      invalid_arg
        "Config.make: need 0 < base_timeout <= max_timeout, base_timeout \
         finite";
    {
      id; n; f; keychain; cost; get_batch; has_pending;
      base_timeout; max_timeout; obs;
    }
end

module type PROTOCOL = sig
  type t

  val name : string
  val create : config -> t
  val on_start : t -> action list
  (** Called once at time zero. *)

  val on_message : t -> Message.t -> action list
  val on_view_timeout : t -> action list
  val force_view_change : t -> action list
  (** Advance to the next view unconditionally — the rotating-leader mode
      of the paper's Section VI (Spinning-style periodic rotation). *)

  val on_new_payload : t -> action list
  (** The mempool went non-empty; an idle leader may propose. *)

  (* Introspection, used by tests, invariant checkers and experiments. *)
  val current_view : t -> int
  val is_leader : t -> bool
  val committed_head : t -> Block.t
  val committed_count : t -> int
  val block_store : t -> Block_store.t
  val locked_qc : t -> Qc.t
  val high_qc : t -> High_qc.t
  val cpu_meter : t -> Cpu_meter.t
end

type protocol = (module PROTOCOL)

(** One variant of a protocol family: its registry name, and basic or
    chained (pipelined) mode. *)
module type MODE = sig
  val name : string
  val chained : bool
end

let pp_action fmt = function
  | Send { dst; msg } -> Format.fprintf fmt "send[->%d] %a" dst Message.pp msg
  | Broadcast msg -> Format.fprintf fmt "broadcast %a" Message.pp msg
  | Commit blocks -> Format.fprintf fmt "commit %d block(s)" (List.length blocks)
  | Timer { duration; cause } ->
      Format.fprintf fmt "timer %.3fs (%s)" duration (timer_cause_label cause)
