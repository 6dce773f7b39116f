(** The standard fault-scenario catalogue exercised by [bench faults] and
    [test_faults]: leader crashes at each phase, cascading leader failures,
    crash/recover churn, partitions, pre-GST message loss, and one scenario
    per {!Scenario.behaviour}. *)

val leader_crash : ?f:int -> ?phase:[ `Prepare | `Commit ] -> unit -> Scenario.t
(** Crash the view-0 leader mid-phase. [?f] scales the cluster ([n = 3f + 1])
    so view-change traffic can be compared across sizes. *)

val cascading_leaders : Scenario.t
(** Crash leaders 0, 1 and 2, one view change apart, at f = 3. *)

val crash_recover : Scenario.t
val partition_heal : Scenario.t
val pre_gst_churn : Scenario.t
val equivocating_leader : Scenario.t
val silent_leader : Scenario.t
val vote_withholder : Scenario.t
val stale_qc_voter : Scenario.t

val all : Scenario.t list
(** Every catalogue scenario at its default size, catalogue order. *)
