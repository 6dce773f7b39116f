open Marlin_crypto

type parent_link = Root | Hash of Sha256.t | Nil
type justify = J_genesis | J_qc of Qc.t | J_paired of Qc.t * Qc.t

type t = {
  pl : parent_link;
  pview : int;
  view : int;
  height : int;
  payload : Batch.t;
  justify : justify;
  mutable cached_digest : Sha256.t option;
}

let genesis =
  {
    pl = Root;
    pview = 0;
    view = 0;
    height = 0;
    payload = Batch.empty;
    justify = J_genesis;
    cached_digest = Some Qc.genesis_ref.Qc.digest;
  }

let encode_justify enc = function
  | J_genesis -> Wire.Enc.u8 enc 0
  | J_qc qc ->
      Wire.Enc.u8 enc 1;
      Qc.encode enc qc
  | J_paired (qc, vc) ->
      Wire.Enc.u8 enc 2;
      Qc.encode enc qc;
      Qc.encode enc vc

let decode_justify dec =
  match Wire.Dec.u8 dec with
  | 0 -> J_genesis
  | 1 -> J_qc (Qc.decode dec)
  | 2 ->
      let qc = Qc.decode dec in
      let vc = Qc.decode dec in
      J_paired (qc, vc)
  | v -> raise (Wire.Dec.Decode_error (Printf.sprintf "bad justify tag %d" v))

(* The digest covers everything except the payload body, which enters via
   its own (cached) digest so blocks can be re-hashed cheaply. *)
let digest b =
  match b.cached_digest with
  | Some d -> d
  | None ->
      let enc = Wire.Enc.create ~size:256 () in
      (match b.pl with
      | Root -> Wire.Enc.u8 enc 0
      | Hash d ->
          Wire.Enc.u8 enc 1;
          Wire.Enc.raw enc (Sha256.to_raw d)
      | Nil -> Wire.Enc.u8 enc 2);
      Wire.Enc.varint enc b.pview;
      Wire.Enc.varint enc b.view;
      Wire.Enc.varint enc b.height;
      Wire.Enc.raw enc (Sha256.to_raw (Batch.digest b.payload));
      encode_justify enc b.justify;
      let d = Sha256.string (Wire.Enc.contents enc) in
      b.cached_digest <- Some d;
      d

let make_normal ~parent ~view ~payload ~justify =
  {
    pl = Hash (digest parent);
    pview = parent.view;
    view;
    height = parent.height + 1;
    payload;
    justify;
    cached_digest = None;
  }

let make_child_of_ref ~(parent : Qc.block_ref) ~view ~payload ~justify =
  {
    pl = Hash parent.Qc.digest;
    pview = parent.Qc.block_view;
    view;
    height = parent.Qc.height + 1;
    payload;
    justify;
    cached_digest = None;
  }

let make_virtual ~pview ~view ~height ~payload ~justify =
  { pl = Nil; pview; view; height; payload; justify; cached_digest = None }

let is_virtual b = match b.pl with Nil -> true | Root | Hash _ -> false

let directly_extends ~child ~(parent : Qc.block_ref) =
  (match child.pl with
  | Hash d -> Sha256.equal d parent.Qc.digest
  | Root | Nil -> false)
  && child.height = parent.Qc.height + 1
  && child.pview = parent.Qc.block_view

let to_ref b =
  {
    Qc.digest = digest b;
    block_view = b.view;
    height = b.height;
    pview = b.pview;
    is_virtual = is_virtual b;
  }

let primary_justify b =
  match b.justify with
  | J_genesis -> None
  | J_qc qc | J_paired (qc, _) -> Some qc

type summary = { b_ref : Qc.block_ref; justify_current : bool }

let summary b =
  let justify_current =
    match b.justify with
    | J_qc qc -> Qc.phase_equal qc.Qc.phase Qc.Prepare && qc.Qc.view = b.view
    | J_genesis | J_paired _ -> false
  in
  { b_ref = to_ref b; justify_current }

let summary_equal a b =
  Qc.block_ref_equal a.b_ref b.b_ref && a.justify_current = b.justify_current

let encode_summary enc s =
  Wire.Enc.raw enc (Sha256.to_raw s.b_ref.Qc.digest);
  Wire.Enc.varint enc s.b_ref.Qc.block_view;
  Wire.Enc.varint enc s.b_ref.Qc.height;
  Wire.Enc.varint enc s.b_ref.Qc.pview;
  Wire.Enc.bool enc s.b_ref.Qc.is_virtual;
  Wire.Enc.bool enc s.justify_current

let decode_summary dec =
  let digest = Sha256.of_raw (Wire.Dec.raw dec Sha256.digest_size) in
  let block_view = Wire.Dec.varint dec in
  let height = Wire.Dec.varint dec in
  let pview = Wire.Dec.varint dec in
  let is_virtual = Wire.Dec.bool dec in
  let justify_current = Wire.Dec.bool dec in
  { b_ref = { Qc.digest; block_view; height; pview; is_virtual }; justify_current }

let encode enc b =
  (match b.pl with
  | Root -> Wire.Enc.u8 enc 0
  | Hash d ->
      Wire.Enc.u8 enc 1;
      Wire.Enc.raw enc (Sha256.to_raw d)
  | Nil -> Wire.Enc.u8 enc 2);
  Wire.Enc.varint enc b.pview;
  Wire.Enc.varint enc b.view;
  Wire.Enc.varint enc b.height;
  Batch.encode enc b.payload;
  encode_justify enc b.justify

let decode dec =
  let pl =
    match Wire.Dec.u8 dec with
    | 0 -> Root
    | 1 -> Hash (Sha256.of_raw (Wire.Dec.raw dec Sha256.digest_size))
    | 2 -> Nil
    | v -> raise (Wire.Dec.Decode_error (Printf.sprintf "bad parent link tag %d" v))
  in
  let pview = Wire.Dec.varint dec in
  let view = Wire.Dec.varint dec in
  let height = Wire.Dec.varint dec in
  let payload = Batch.decode dec in
  let justify = decode_justify dec in
  { pl; pview; view; height; payload; justify; cached_digest = None }

let justify_size ~sig_bytes = function
  | J_genesis -> 1
  | J_qc qc -> 1 + Qc.wire_size ~sig_bytes qc
  | J_paired (qc, vc) -> 1 + Qc.wire_size ~sig_bytes qc + Qc.wire_size ~sig_bytes vc

let header_size ~sig_bytes b =
  let pl_size = match b.pl with Root | Nil -> 1 | Hash _ -> 1 + Sha256.digest_size in
  pl_size + Wire.varint_size b.pview + Wire.varint_size b.view
  + Wire.varint_size b.height
  + justify_size ~sig_bytes b.justify

let wire_size ~sig_bytes b = header_size ~sig_bytes b + Batch.wire_size b.payload

let justify_equal a b =
  match (a, b) with
  | J_genesis, J_genesis -> true
  | J_qc x, J_qc y -> Qc.equal x y
  | J_paired (x1, x2), J_paired (y1, y2) -> Qc.equal x1 y1 && Qc.equal x2 y2
  | (J_genesis | J_qc _ | J_paired _), _ -> false

let equal a b = Sha256.equal (digest a) (digest b)

let pp fmt b =
  Format.fprintf fmt "block{v%d h%d %a%s %a}" b.view b.height Sha256.pp (digest b)
    (if is_virtual b then " virt" else "")
    Batch.pp b.payload
