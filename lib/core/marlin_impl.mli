(** Marlin (Sui, Duan, Zhang — DSN 2022): two-phase BFT with linearity.

    This is the paper's Section V protocol. In basic mode
    ([Registry.Marlin]) blocks commit in two voting phases (PREPARE,
    COMMIT). In chained mode ([Registry.Chained_marlin], the mode the
    paper's evaluation runs) there is one voting round per block: each
    proposal's justify carries the prepareQC for its parent, the leader
    proposes the next block the moment a QC forms, and a block commits on
    a two-chain (a same-view prepareQC for a direct child).

    Both modes share the view change. It takes two phases on the happy
    path (all VIEW-CHANGE messages agree on the last voted block, so their
    partial signatures combine directly into a prepareQC) and three
    otherwise (a PRE-PREPARE phase in which replicas vote to establish the
    highest QC, with the leader proposing a normal and a {e virtual}
    shadow block when it cannot tell whether its view-change snapshot is
    safe). Per the paper, no new block is proposed in the prepare step
    right after an unhappy pre-prepare. *)

module type S = sig
  include Consensus_intf.PROTOCOL

  (** Extra introspection used by protocol-level tests. *)

  val last_voted : t -> Marlin_types.Block.t
  val view_change_in_progress : t -> bool
end

module Make (_ : Consensus_intf.MODE) : S
