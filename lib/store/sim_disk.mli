(** Disk cost model for simulated replicas.

    The paper's evaluation stresses that, unlike prior work, it writes
    committed data into LevelDB and checkpoints (garbage-collects) every
    5000 blocks — which depresses absolute throughput. This module charges
    the corresponding simulated time: a per-batch commit cost (WAL append
    at disk bandwidth plus a fixed syscall overhead) and a periodic
    checkpoint pause. *)

type config = {
  write_bandwidth : float;  (** sequential write bytes/second *)
  write_overhead : float;  (** fixed seconds per batch (syscall + WAL) *)
  checkpoint_interval : int;
      (** blocks between checkpoints (paper: 5000); 0 disables them *)
  checkpoint_cost : float;  (** seconds a checkpoint stalls the replica *)
}

val default_config : config

type t

val create : config -> t
(** @raise Invalid_argument naming the field when [write_overhead] or
    [checkpoint_cost] is negative or not finite, [write_bandwidth] is not
    [> 0] ([infinity] is allowed), or [checkpoint_interval < 0]. *)

val commit_cost : t -> bytes:int -> float
(** Simulated seconds to persist one committed block of [bytes]. Advances
    the internal block counter and folds in a checkpoint pause every
    [checkpoint_interval] blocks. *)

val blocks_written : t -> int
val checkpoints_run : t -> int
