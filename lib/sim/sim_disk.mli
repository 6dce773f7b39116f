(** Disk cost model for simulated replicas.

    The paper's evaluation stresses that, unlike prior work, it writes
    committed data into LevelDB and checkpoints (garbage-collects) every
    5000 blocks — which depresses absolute throughput. This module charges
    the corresponding simulated time on the testbed's fixed disk: a
    per-block commit cost (WAL append at 400 MB/s plus a 20 µs syscall
    overhead) and a 50 ms checkpoint pause every 5000th block. *)

type t

val create : unit -> t
(** A disk that has written no block. *)

val commit_cost : t -> bytes:int -> float
(** Simulated seconds to persist one committed block of [bytes]:
    [20e-6 +. bytes /. 4e8], plus [0.050] on every 5000th block. Advances
    the internal block counter. *)

val blocks_written : t -> int
val checkpoints_run : t -> int
