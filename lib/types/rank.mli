(** Rank comparison rules (Figure 4 and Section V-A of the paper).

    Ranks are a preorder, not a total order: two pre-prepareQCs formed in
    the same view have the same rank regardless of height (that is what
    lets the leader form two equal-rank pre-prepareQCs in Case V3), and two
    same-view blocks are only height-ordered when the higher one's justify
    is a prepareQC from its own view. *)

type ord = Lt | Eq | Gt

val qc : Qc.t -> Qc.t -> ord
(** [qc a b] compares QC ranks per Figure 4:
    (a) higher view wins;
    (b) same view: PREPARE/COMMIT outranks PRE-PREPARE;
    (c) same view, both PREPARE/COMMIT: higher height wins.
    Anything else is [Eq]. *)

val qc_gt : Qc.t -> Qc.t -> bool
val qc_geq : Qc.t -> Qc.t -> bool

val max_qc : Qc.t -> Qc.t -> Qc.t
(** The left argument on ties. *)


val block_gt : Block.summary -> Block.summary -> bool

val pp_ord : Format.formatter -> ord -> unit
