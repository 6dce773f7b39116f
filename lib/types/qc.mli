(** Quorum certificates.

    A QC is a (n-f, n) threshold signature over a vote payload that names a
    phase, the view the votes were cast in, and the certified block (by
    digest plus the metadata the view-change rules need: the block's own
    view, height, parent view and whether it is virtual).

    Note on [view]: the paper defines [qc.x] over the certified block, which
    coincides with the vote view for every QC formed in the normal case and
    in the pre-prepare phase. The one exception is the happy-path view
    change, where n-f VIEW-CHANGE messages for view [v] over an older block
    [lb] are combined into a prepareQC; that certificate must rank (and pass
    the "formed in the current view" checks) as a view-[v] QC for the
    protocol to proceed, so [view] here is always the *vote* view. *)

type phase =
  | Pre_prepare
  | Prepare
  | Precommit  (** HotStuff's middle phase; unused by Marlin *)
  | Commit

type block_ref = {
  digest : Marlin_crypto.Sha256.t;  (** hash of the certified block *)
  block_view : int;  (** view the block was proposed in *)
  height : int;
  pview : int;  (** view of the block's parent *)
  is_virtual : bool;
}

type t = {
  phase : phase;
  view : int;  (** view the votes were cast in *)
  block : block_ref;
  tsig : Marlin_crypto.Threshold.t;
}

val sign_vote :
  Marlin_crypto.Keychain.t -> signer:int -> phase:phase -> view:int ->
  block_ref -> Marlin_crypto.Threshold.partial

val verify_vote :
  Marlin_crypto.Keychain.t -> phase:phase -> view:int -> block_ref ->
  Marlin_crypto.Threshold.partial -> bool

val combine :
  Marlin_crypto.Keychain.t -> threshold:int -> phase:phase -> view:int ->
  block_ref -> Marlin_crypto.Threshold.partial list -> (t, string) result

val verify : Marlin_crypto.Keychain.t -> threshold:int -> t -> bool
(** Checks the threshold signature. The genesis QC verifies by
    construction. *)

val genesis_ref : block_ref
(** Reference to the genesis block (view 0, height 0). The digest matches
    {!Block.genesis}'s digest by construction; see [Block]. *)

val genesis : t
(** The conventional prepareQC for the genesis block, held by every replica
    at start-up. It carries an empty signer set and is accepted by
    {!verify} by special case. *)

val is_genesis : t -> bool
val phase_equal : phase -> phase -> bool

val phase_to_int : phase -> int
(** The phase's wire tag, 0 to 3. *)

val phase_of_int : int -> phase
(** Inverse of {!phase_to_int}.
    @raise Wire.Dec.Decode_error on a tag outside 0 to 3. *)

val encode_block_ref : Wire.Enc.t -> block_ref -> unit
(** Digest, view, height, parent view (varints) and the virtual flag. *)

val decode_block_ref : Wire.Dec.t -> block_ref

val block_ref_equal : block_ref -> block_ref -> bool
val equal : t -> t -> bool
val encode : Wire.Enc.t -> t -> unit
(** Reference codec (used by tests and the examples); spells the signer set
    out as a list. *)

val decode : Wire.Dec.t -> t

val wire_size : sig_bytes:int -> t -> int
(** Accounting size of a QC whose combined signature (including any signer
    bitmap) occupies [sig_bytes] on the wire — pass
    [Cost_model.combined_size] so bandwidth charges follow the signature
    scheme in use. *)

val pp : Format.formatter -> t -> unit
