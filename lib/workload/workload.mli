(** How an experiment offers load to a cluster — the typed replacement for
    the old bare [clients : int] field in [Cluster.params].

    Two regimes:

    - {b Closed loop}: [clients] simulated clients each keep exactly one
      request outstanding and submit the next on completion, as in the
      paper's Fig. 10 sweeps. Load self-limits at saturation, so latency
      under overload is invisible (coordinated omission).
    - {b Open loop}: operations arrive on an {!Arrival} process clock
      regardless of completions, drawn from a [key_space] of distinct
      client keys without materializing per-client state — the regime that
      locates the saturation knee and exercises mempool admission control.

    Smart constructors validate everything; the variant is [private]. *)

type t = private
  | Closed_loop of { clients : int }
  | Open_loop of { arrival : Arrival.t; key_space : int; sources : int }
      (** [sources] independent generator endpoints, each with its own
          split RNG stream, jointly offering [Arrival.mean_rate arrival]
          ops/s; each operation's client key is uniform in
          [\[0, key_space)]. *)

val closed_loop : clients:int -> t
(** @raise Invalid_argument unless [clients >= 1]. *)

val open_loop : ?sources:int -> arrival:Arrival.t -> key_space:int -> unit -> t
(** [sources] defaults to 8.
    @raise Invalid_argument unless [key_space >= 1] and [sources >= 1]. *)

val endpoints : t -> int
(** Extra network endpoints beyond the replicas: [clients] for a closed
    loop, [sources] for an open loop. *)

val closed_clients : t -> int
(** Closed-loop client count; [0] for an open loop (nothing awaits
    replies, so replicas send none). *)

val is_open : t -> bool

val offered_rate : t -> float option
(** Mean offered load in ops/s — [None] for a closed loop, where offered
    load is a function of service time, not of the workload. *)

val with_rate : t -> rate:float -> t
(** The same open-loop shape re-targeted at mean [rate] ops/s (how sweeps
    vary offered load). @raise Invalid_argument on a closed loop. *)

val label : t -> string
