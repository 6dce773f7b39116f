open Marlin_crypto

type phase = Pre_prepare | Prepare | Precommit | Commit

type block_ref = {
  digest : Sha256.t;
  block_view : int;
  height : int;
  pview : int;
  is_virtual : bool;
}

type t = { phase : phase; view : int; block : block_ref; tsig : Threshold.t }

let phase_to_int = function
  | Pre_prepare -> 0
  | Prepare -> 1
  | Precommit -> 2
  | Commit -> 3

let phase_of_int = function
  | 0 -> Pre_prepare
  | 1 -> Prepare
  | 2 -> Precommit
  | 3 -> Commit
  | v -> raise (Wire.Dec.Decode_error (Printf.sprintf "bad phase %d" v))

let encode_block_ref enc r =
  Wire.Enc.raw enc (Sha256.to_raw r.digest);
  Wire.Enc.varint enc r.block_view;
  Wire.Enc.varint enc r.height;
  Wire.Enc.varint enc r.pview;
  Wire.Enc.bool enc r.is_virtual

let decode_block_ref dec =
  let digest = Sha256.of_raw (Wire.Dec.raw dec Sha256.digest_size) in
  let block_view = Wire.Dec.varint dec in
  let height = Wire.Dec.varint dec in
  let pview = Wire.Dec.varint dec in
  let is_virtual = Wire.Dec.bool dec in
  { digest; block_view; height; pview; is_virtual }

let block_ref_size r =
  Sha256.digest_size + Wire.varint_size r.block_view + Wire.varint_size r.height
  + Wire.varint_size r.pview + 1

let vote_payload ~phase ~view block =
  let enc = Wire.Enc.create ~size:64 () in
  Wire.Enc.u8 enc (phase_to_int phase);
  Wire.Enc.varint enc view;
  encode_block_ref enc block;
  Wire.Enc.contents enc

let phase_equal a b = phase_to_int a = phase_to_int b

let block_ref_equal a b =
  a == b
  || Sha256.equal a.digest b.digest
     && a.block_view = b.block_view && a.height = b.height && a.pview = b.pview
     && a.is_virtual = b.is_virtual

type ballot = {
  vote_phase : phase;
  vote_view : int;
  vote_block : block_ref;
  payload : string; (* vote_payload of the three above *)
  share : Threshold.share_msg; (* of payload *)
}

let ballot ~phase ~view block =
  let payload = vote_payload ~phase ~view block in
  {
    vote_phase = phase;
    vote_view = view;
    vote_block = block;
    payload;
    share = Threshold.share_msg payload;
  }

let sign_vote kc ~signer ~phase ~view block =
  Threshold.sign kc ~signer (vote_payload ~phase ~view block)

let verify_ballot kc b partial = Threshold.verify_share kc b.share partial

let verify_vote kc ~phase ~view block partial =
  Threshold.verify_partial kc (vote_payload ~phase ~view block) partial

let of_tsig b = function
  | Error _ as e -> e
  | Ok tsig ->
      Ok { phase = b.vote_phase; view = b.vote_view; block = b.vote_block; tsig }

let combine_ballot kc ~threshold b partials =
  of_tsig b (Threshold.combine kc ~threshold b.payload partials)

let aggregate_ballot kc ~threshold b partials =
  of_tsig b (Threshold.aggregate kc ~threshold b.payload partials)

let combine kc ~threshold ~phase ~view block partials =
  combine_ballot kc ~threshold (ballot ~phase ~view block) partials

let genesis_ref =
  {
    digest = Sha256.string "marlin/genesis/v1";
    block_view = 0;
    height = 0;
    pview = 0;
    is_virtual = false;
  }

let genesis =
  {
    phase = Prepare;
    view = 0;
    block = genesis_ref;
    tsig = { Threshold.signers = []; tag = Sha256.string "marlin/genesis-qc/v1" };
  }

(* Every field is immutable, so a QC shared by reference is equal to
   itself without a walk of its signers; a copy is compared in full. *)
let equal a b =
  a == b
  || phase_equal a.phase b.phase && a.view = b.view
     && block_ref_equal a.block b.block
     && Threshold.equal a.tsig b.tsig

let is_genesis qc = equal qc genesis

let verify kc ~threshold qc =
  is_genesis qc
  || Threshold.verify kc ~threshold
       (vote_payload ~phase:qc.phase ~view:qc.view qc.block)
       qc.tsig

let encode enc qc =
  Wire.Enc.u8 enc (phase_to_int qc.phase);
  Wire.Enc.varint enc qc.view;
  encode_block_ref enc qc.block;
  Wire.Enc.varint enc (List.length qc.tsig.signers);
  List.iter (Wire.Enc.varint enc) qc.tsig.signers;
  Wire.Enc.raw enc (Sha256.to_raw qc.tsig.tag)

let decode dec =
  let phase = phase_of_int (Wire.Dec.u8 dec) in
  let view = Wire.Dec.varint dec in
  let block = decode_block_ref dec in
  let n = Wire.Dec.varint dec in
  let signers = List.init n (fun _ -> Wire.Dec.varint dec) in
  let tag = Sha256.of_raw (Wire.Dec.raw dec Sha256.digest_size) in
  { phase; view; block; tsig = { Threshold.signers; tag } }

(* The reference codec above spells the signer set out as a list; real
   certificates carry either t concatenated signatures (ECDSA group) or one
   signature plus a bitmap (BLS). Accounting therefore takes the combined
   signature size from the cost model. *)
let wire_size ~sig_bytes qc =
  1 + Wire.varint_size qc.view + block_ref_size qc.block + sig_bytes

let pp_phase fmt p =
  Format.pp_print_string fmt
    (match p with
    | Pre_prepare -> "PRE-PREPARE"
    | Prepare -> "PREPARE"
    | Precommit -> "PRECOMMIT"
    | Commit -> "COMMIT")

let pp fmt qc =
  Format.fprintf fmt "QC{%a v%d h%d %a%s}" pp_phase qc.phase qc.view
    qc.block.height Sha256.pp qc.block.digest
    (if qc.block.is_virtual then " virt" else "")
