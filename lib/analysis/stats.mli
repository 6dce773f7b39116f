(** Small descriptive-statistics helpers for experiment results. *)

val mean : float list -> float
(** 0. on the empty list. *)

val stddev : float list -> float

val percentile : float list -> p:float -> float
(** Nearest-rank percentile. [p] is clamped to [0, 100]; 0. on the empty
    list, the sample itself on a singleton (for every [p]). *)

val median : float list -> float
val minimum : float list -> float
val maximum : float list -> float

val select : float array -> len:int -> k:int -> unit
(** [select a ~len ~k] permutes [a.(0) .. a.(len - 1)] so that [a.(k)]
    holds the element of 0-based rank [k] among them (what a sort would
    put there): nothing before it is greater and nothing after it is
    smaller. Quickselect in place (Wirth's [find]): expected O([len]),
    no allocation. [infinity] is an ordinary value; NaN is not allowed.
    @raise Invalid_argument unless [0 <= k < len <= Array.length a]. *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;  (** tail percentile for open-loop overload studies *)
  min : float;
  max : float;
}

val empty_summary : summary
(** All-zero: what [summarize] returns for no samples. *)

val summarize : float list -> summary

(** Bounded reservoir over a float stream (Vitter's Algorithm R): O(capacity)
    memory however long the run, exact streaming count/mean/min/max, and
    percentiles over a uniform sample of everything seen. Replacement uses a
    private deterministic SplitMix64 stream, so results are reproducible and
    the simulation RNG is untouched. Once the reservoir is warm, [add] is
    an in-place store into an unboxed float array — no allocation. *)
module Reservoir : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity 1024.
      @raise Invalid_argument when [capacity <= 0]. *)

  val add : t -> float -> unit
  val count : t -> int
  (** Samples seen, not samples kept. *)

  val kept : t -> int
  (** [min (count t) capacity]. *)

  val is_empty : t -> bool
  val mean : t -> float
  (** Exact over the whole stream. *)

  val percentile : t -> p:float -> float
  (** Nearest-rank over the kept sample; exact until the reservoir
      overflows, an unbiased estimate after. 0. when empty. *)

  val summarize : t -> summary
  (** [count]/[mean]/[min]/[max] are exact over the stream; the
      percentiles come from the kept sample. *)

  val clear : t -> unit

  val samples : t -> float list
  (** The kept sample, insertion order (a uniform draw over the stream once
      the reservoir has overflowed). For pooling several reservoirs into
      one summary — e.g. per-window latencies into a run-level tail. *)
end
