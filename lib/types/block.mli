(** Blocks: the vertices of the replicated block tree.

    A block is [pl, pview, view, height, op, justify] per Section V-A of the
    paper. Two special shapes exist besides normal blocks:

    - the {!genesis} block, the root of every replica's tree;
    - {e virtual} blocks ([pl = Nil]), proposed during view changes to make
      the pre-prepare phase useful even when the leader is unsure whether a
      higher prepareQC exists. A virtual block's parent is unknown at
      proposal time and is resolved later from the validating prepareQC
      [vc] (see [Block_store.resolve_virtual_parent]). *)

type parent_link =
  | Root  (** only the genesis block *)
  | Hash of Marlin_crypto.Sha256.t  (** digest of the parent block *)
  | Nil  (** virtual block: parent unknown at proposal time *)

(** The [justify] field. [J_paired (qc, vc)] is the paper's [(qc, vc)]:
    a pre-prepareQC for a virtual block together with the prepareQC for
    that virtual block's parent. *)
type justify =
  | J_genesis
  | J_qc of Qc.t
  | J_paired of Qc.t * Qc.t

type t = private {
  pl : parent_link;
  pview : int;  (** view of the parent block *)
  view : int;
  height : int;
  payload : Batch.t;
  justify : justify;
  mutable cached_digest : Marlin_crypto.Sha256.t option;
}

val genesis : t
(** View 0, height 0, empty payload; its digest equals
    [Qc.genesis_ref.digest]. *)

val make_normal : parent:t -> view:int -> payload:Batch.t -> justify:justify -> t
(** A normal block extending [parent] ([pl = Hash (digest parent)],
    [pview = parent.view], [height = parent.height + 1]). *)

val make_child_of_ref :
  parent:Qc.block_ref -> view:int -> payload:Batch.t -> justify:justify -> t
(** Like {!make_normal}, but from a block {e reference} — a leader can
    extend a certified block it knows only by digest (the body, if ever
    needed, travels through the fetch protocol). *)

val make_virtual :
  pview:int -> view:int -> height:int -> payload:Batch.t -> justify:justify -> t

val digest : t -> Marlin_crypto.Sha256.t
(** Hash over the canonical encoding (payload hashed via its own digest so
    re-hashing a block is cheap); cached. *)

val to_ref : t -> Qc.block_ref
val is_virtual : t -> bool

val directly_extends : child:t -> parent:Qc.block_ref -> bool
(** [child] links by hash to the block [parent] references, one height
    above it, with [child.pview] the parent's view. *)

val primary_justify : t -> Qc.t option
(** The QC with the highest rank in the justify field ([None] for genesis).
    For [J_paired (qc, vc)] this is [qc] — the pre-prepareQC, which was
    formed in a later view than [vc]. *)

(** What a VIEW-CHANGE message reveals about a replica's last voted block:
    enough to compare block ranks (Section V-A: [rank b1 > rank b2] iff
    [b1.view > b2.view], or same view, greater height, {e and} [b1.justify]
    is a prepareQC formed in [b1.view]). *)
type summary = { b_ref : Qc.block_ref; justify_current : bool }

val summary : t -> summary
val summary_equal : summary -> summary -> bool
val encode_summary : Wire.Enc.t -> summary -> unit
val decode_summary : Wire.Dec.t -> summary

val encode : Wire.Enc.t -> t -> unit
val decode : Wire.Dec.t -> t

val wire_size : sig_bytes:int -> t -> int
(** Accounting size; [sig_bytes] is the combined-signature size used for
    each QC in the justify (see {!Qc.wire_size}). *)

val header_size : sig_bytes:int -> t -> int
(** {!wire_size} minus the payload bytes — the size of a {e shadow} copy of
    the block, which shares its payload with a sibling proposal and ships
    metadata only (Section IV-D "Shadow blocks"). *)

val equal : t -> t -> bool
val justify_equal : justify -> justify -> bool
val pp : Format.formatter -> t -> unit
