(** PBFT (Castro & Liskov, OSDI 1999), adapted to the block-chain syntax
    of this repository.

    The paper's Section II counterpoint to HotStuff-style protocols: PBFT
    commits in three one-way message delays (PRE-PREPARE, then all-to-all
    PREPARE and COMMIT), giving a client-to-client latency of 5 hops —
    against Marlin's 7 and HotStuff's 9 — at the price of O(n²)
    normal-case communication and a quadratic view change (the NEW-VIEW
    message carries a quorum of view-change certificates).

    Implementation notes: slots are block heights (each block extends the
    previous slot's block); replicas broadcast their votes to everyone and
    each replica assembles certificates independently; a bounded window of
    slots is in flight at once. The view change broadcasts VIEW-CHANGE
    messages (so every replica sees the quorum) and the new leader
    re-proposes from the highest prepared certificate, shipping the
    certificate quorum as its justification. *)

include Consensus_intf.PROTOCOL
(** [locked_qc] is the highest certificate this replica has {e prepared}
    (its view-change payload). *)
