(** A replica's local tree of blocks, rooted at {!Block.genesis}.

    Blocks are addressed by digest. Virtual blocks enter the tree without a
    parent; {!resolve_virtual_parent} attaches them once the validating
    prepareQC for their parent is seen (prepare phase, Case N2). The store
    also tracks the committed prefix and hands back newly committed blocks
    in chain order. *)

type t

val create : unit -> t
(** A fresh store containing only the genesis block. *)

val add : t -> Block.t -> unit
(** Insert a block (idempotent). A normal block's parent link comes from
    its [pl] field; a virtual block stays parentless until
    {!resolve_virtual_parent}. *)

val find : t -> Marlin_crypto.Sha256.t -> Block.t option
val mem : t -> Marlin_crypto.Sha256.t -> bool
val size : t -> int
(** Number of blocks stored (including genesis). *)

val parent : t -> Block.t -> Block.t option
(** The parent block, if known and present. *)

val resolve_virtual_parent :
  t -> virtual_digest:Marlin_crypto.Sha256.t -> parent_digest:Marlin_crypto.Sha256.t -> unit
(** Attach a virtual block below its validated parent. No-op if the virtual
    block is unknown; idempotent. *)

val extends :
  t -> descendant:Block.t -> ancestor:Marlin_crypto.Sha256.t -> bool
(** [extends t ~descendant ~ancestor]: is [ancestor] on the branch led by
    [descendant]? A block extends itself. Unresolved virtual links stop the
    walk (and yield [false]). *)

val chain_to : t -> Block.t -> above:Marlin_crypto.Sha256.t -> Block.t list option
(** Blocks strictly above [above] down the branch led by the given block,
    oldest first and including the block itself; [None] if the branch does
    not pass through [above]. *)

val last_committed : t -> Block.t
val committed_count : t -> int
(** Number of blocks committed (genesis excluded). *)

val agree : t list -> bool
(** Agreement across replicas' stores: every store's committed head lies
    on the branch of the highest committed head (the first on a tie),
    walked in the store that holds it. The empty list agrees. *)

val commit : t -> Block.t -> (Block.t list, string) result
(** Commit a block and its uncommitted ancestors. Returns the newly
    committed blocks oldest-first. Errors if the block does not extend the
    current committed head (which would be a safety violation — callers
    treat it as fatal) or if an ancestor is missing. Committing an already
    committed block returns []. *)
