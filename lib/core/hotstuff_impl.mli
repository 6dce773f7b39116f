(** HotStuff (Yin et al., PODC 2019), the paper's baseline.

    Basic mode ([Registry.Hotstuff]) has three voting phases per block
    (PREPARE, PRE-COMMIT, COMMIT) plus the DECIDE broadcast; replicas lock
    on the precommitQC and unlock when shown a QC from a higher view.
    Chained mode ([Registry.Chained_hotstuff], the baseline the paper's
    evaluation runs) has one generic voting round per block, locks on a
    two-chain and commits on a three-chain of same-view direct-parent
    prepareQCs.

    View changes are linear: each replica sends its latest prepareQC in a
    NEW-VIEW message, and the new leader extends the highest one. Like
    {!Marlin_impl}, this implementation runs multi-block views with a
    stable leader (the mode both protocols are benchmarked in), so the two
    differ by exactly what the paper varies: the number of phases and the
    view-change rule. *)

module Make (_ : Consensus_intf.MODE) : Consensus_intf.PROTOCOL
