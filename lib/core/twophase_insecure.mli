(** "Two-phase HotStuff (insecure)" — the strawman of Section IV-B.

    Identical to Marlin's two-phase normal case (replicas lock as soon as
    they see a prepareQC), but with HotStuff's naive view change: the new
    leader simply extends the highest prepareQC found in a quorum of
    view-change messages. As Figure 2b shows, a replica locked on a QC the
    leader's snapshot missed will refuse every new proposal, and the system
    loses liveness — there is no unlock mechanism. This module exists to
    {e demonstrate} that failure (see the liveness test suite and
    [examples/byzantine_demo.ml]); do not deploy it. *)

include Consensus_intf.PROTOCOL

val rejected_proposals : t -> int
(** How many proposals this replica refused because of its lock — the
    observable symptom of the livelock. *)
