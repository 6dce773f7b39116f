open Marlin_crypto

type payload =
  | Propose of { block : Block.t; justify : High_qc.t }
  | Vote of {
      kind : Qc.phase;
      block : Qc.block_ref;
      partial : Threshold.partial;
      locked : Qc.t option;
    }
  | Phase_cert of Qc.t
  | View_change of {
      last : Block.summary;
      justify : High_qc.t;
      parsig : Threshold.partial;
    }
  | Pre_prepare of { proposals : Block.t list }
  | New_view of { justify : Qc.t }
  | New_view_proof of { justify : Qc.t; proof : Qc.t list }
  | Fetch of { digest : Sha256.t }
  | Fetch_resp of { block : Block.t }
  | Client_op of Operation.t
  | Client_reply of { client : int; seq : int }

type t = { sender : int; view : int; payload : payload }

let make ~sender ~view payload = { sender; view; payload }

let encode_partial enc (p : Threshold.partial) =
  Wire.Enc.varint enc p.Threshold.signer;
  Wire.Enc.raw enc (Sha256.to_raw p.Threshold.tag)

let decode_partial dec =
  let signer = Wire.Dec.varint dec in
  let tag = Sha256.of_raw (Wire.Dec.raw dec Sha256.digest_size) in
  { Threshold.signer; tag }

let encode enc m =
  Wire.Enc.varint enc m.sender;
  Wire.Enc.varint enc m.view;
  match m.payload with
  | Propose { block; justify } ->
      Wire.Enc.u8 enc 0;
      Block.encode enc block;
      High_qc.encode enc justify
  | Vote { kind; block; partial; locked } ->
      Wire.Enc.u8 enc 1;
      Wire.Enc.u8 enc (Qc.phase_to_int kind);
      Qc.encode_block_ref enc block;
      encode_partial enc partial;
      (match locked with
      | None -> Wire.Enc.bool enc false
      | Some qc ->
          Wire.Enc.bool enc true;
          Qc.encode enc qc)
  | Phase_cert qc ->
      Wire.Enc.u8 enc 2;
      Qc.encode enc qc
  | View_change { last; justify; parsig } ->
      Wire.Enc.u8 enc 3;
      Block.encode_summary enc last;
      High_qc.encode enc justify;
      encode_partial enc parsig
  | Pre_prepare { proposals } ->
      Wire.Enc.u8 enc 4;
      Wire.Enc.varint enc (List.length proposals);
      List.iter (Block.encode enc) proposals
  | New_view { justify } ->
      Wire.Enc.u8 enc 5;
      Qc.encode enc justify
  | New_view_proof { justify; proof } ->
      Wire.Enc.u8 enc 10;
      Qc.encode enc justify;
      Wire.Enc.varint enc (List.length proof);
      List.iter (Qc.encode enc) proof
  | Fetch { digest } ->
      Wire.Enc.u8 enc 8;
      Wire.Enc.raw enc (Sha256.to_raw digest)
  | Fetch_resp { block } ->
      Wire.Enc.u8 enc 9;
      Block.encode enc block
  | Client_op op ->
      Wire.Enc.u8 enc 6;
      Operation.encode enc op
  | Client_reply { client; seq } ->
      Wire.Enc.u8 enc 7;
      Wire.Enc.varint enc client;
      Wire.Enc.varint enc seq

let decode dec =
  let sender = Wire.Dec.varint dec in
  let view = Wire.Dec.varint dec in
  let payload =
    match Wire.Dec.u8 dec with
    | 0 ->
        let block = Block.decode dec in
        let justify = High_qc.decode dec in
        Propose { block; justify }
    | 1 ->
        let kind = Qc.phase_of_int (Wire.Dec.u8 dec) in
        let block = Qc.decode_block_ref dec in
        let partial = decode_partial dec in
        let locked = if Wire.Dec.bool dec then Some (Qc.decode dec) else None in
        Vote { kind; block; partial; locked }
    | 2 -> Phase_cert (Qc.decode dec)
    | 3 ->
        let last = Block.decode_summary dec in
        let justify = High_qc.decode dec in
        let parsig = decode_partial dec in
        View_change { last; justify; parsig }
    | 4 ->
        let n = Wire.Dec.varint dec in
        Pre_prepare { proposals = List.init n (fun _ -> Block.decode dec) }
    | 5 -> New_view { justify = Qc.decode dec }
    | 6 -> Client_op (Operation.decode dec)
    | 7 ->
        let client = Wire.Dec.varint dec in
        let seq = Wire.Dec.varint dec in
        Client_reply { client; seq }
    | 8 -> Fetch { digest = Sha256.of_raw (Wire.Dec.raw dec Sha256.digest_size) }
    | 9 -> Fetch_resp { block = Block.decode dec }
    | 10 ->
        let justify = Qc.decode dec in
        let k = Wire.Dec.varint dec in
        New_view_proof { justify; proof = List.init k (fun _ -> Qc.decode dec) }
    | v -> raise (Wire.Dec.Decode_error (Printf.sprintf "bad message tag %d" v))
  in
  { sender; view; payload }

let encode_string m =
  let enc = Wire.Enc.create () in
  encode enc m;
  Wire.Enc.contents enc

let decode_string s =
  let dec = Wire.Dec.of_string s in
  let m = decode dec in
  if not (Wire.Dec.at_end dec) then
    raise
      (Wire.Dec.Decode_error
         (Printf.sprintf "%d trailing bytes" (Wire.Dec.remaining dec)));
  m

(* Accounting sizes: a block reference counts a flat 36 bytes here, not
   the exact varint count of [Qc.block_ref_size], which the codec above
   writes. *)
let partial_size = Threshold.partial_size_bytes
let block_ref_size = Sha256.digest_size + 4
let summary_size = block_ref_size + 1

let wire_size ~sig_bytes m =
  let header = Wire.varint_size m.sender + Wire.varint_size m.view + 1 in
  let body =
    match m.payload with
    | Propose { block; justify } ->
        let justify_bytes = High_qc.wire_size ~sig_bytes justify in
        (* When m.justify equals the block's own justify (normal case N1),
           real implementations ship it once. *)
        let duplicated =
          Block.justify_equal (High_qc.to_justify justify) block.Block.justify
        in
        Block.wire_size ~sig_bytes block + (if duplicated then 0 else justify_bytes)
    | Vote { locked; _ } ->
        1 + block_ref_size + partial_size
        + (match locked with None -> 1 | Some qc -> 1 + Qc.wire_size ~sig_bytes qc)
    | Phase_cert qc -> Qc.wire_size ~sig_bytes qc
    | View_change { justify; _ } ->
        summary_size + High_qc.wire_size ~sig_bytes justify + partial_size
    | Pre_prepare { proposals } -> (
        (* Shadow blocks: the payload travels once; siblings ship headers. *)
        match proposals with
        | [] -> 1
        | first :: rest ->
            1
            + Block.wire_size ~sig_bytes first
            + List.fold_left
                (fun acc b -> acc + Block.header_size ~sig_bytes b)
                0 rest)
    | New_view { justify } -> Qc.wire_size ~sig_bytes justify
    | New_view_proof { justify; proof } ->
        Qc.wire_size ~sig_bytes justify
        + List.fold_left (fun acc qc -> acc + Qc.wire_size ~sig_bytes qc) 1 proof
    | Fetch _ -> Sha256.digest_size
    | Fetch_resp { block } -> Block.wire_size ~sig_bytes block
    | Client_op op -> Operation.wire_size op
    | Client_reply { client; seq } -> Wire.varint_size client + Wire.varint_size seq
  in
  header + body

let justify_authenticators (j : Block.justify) =
  match j with Block.J_genesis -> 0 | Block.J_qc _ -> 1 | Block.J_paired _ -> 2

let high_qc_authenticators (h : High_qc.t) =
  match h with High_qc.Single _ -> 1 | High_qc.Paired _ -> 2

let authenticators m =
  match m.payload with
  | Propose { block; justify } ->
      let dup =
        Block.justify_equal (High_qc.to_justify justify) block.Block.justify
      in
      justify_authenticators block.Block.justify
      + (if dup then 0 else high_qc_authenticators justify)
  | Vote { locked; _ } -> 1 + (match locked with None -> 0 | Some _ -> 1)
  | Phase_cert _ -> 1
  | View_change { justify; _ } -> high_qc_authenticators justify + 1
  | Pre_prepare { proposals } ->
      List.fold_left
        (fun acc (b : Block.t) -> acc + justify_authenticators b.Block.justify)
        0 proposals
  | New_view _ -> 1
  | New_view_proof { proof; _ } -> 1 + List.length proof
  | Fetch _ -> 0
  | Fetch_resp { block } -> justify_authenticators block.Block.justify
  | Client_op _ | Client_reply _ -> 0

let op_count m =
  match m.payload with
  | Propose { block; _ } -> Batch.length block.Block.payload
  | Pre_prepare { proposals } -> (
      (* shadow blocks share one payload *)
      match proposals with [] -> 0 | b :: _ -> Batch.length b.Block.payload)
  | Fetch_resp { block } -> Batch.length block.Block.payload
  | Client_op _ -> 1
  | Vote _ | Phase_cert _ | View_change _ | New_view _ | New_view_proof _
  | Fetch _ | Client_reply _ ->
      0

(* One dense index per {!type_name}; the consensus kinds come first. *)
let kind_names =
  [|
    "PROPOSE"; "VOTE-PRE-PREPARE"; "VOTE-PREPARE"; "VOTE-PRECOMMIT";
    "VOTE-COMMIT"; "CERT-PRE-PREPARE"; "CERT-PREPARE"; "CERT-PRECOMMIT";
    "CERT-COMMIT"; "VIEW-CHANGE"; "PRE-PREPARE"; "NEW-VIEW"; "NEW-VIEW-PROOF";
    "FETCH"; "FETCH-RESP"; "CLIENT-OP"; "CLIENT-REPLY";
  |]

let kind_count = Array.length kind_names
let consensus_kinds = 13

let phase_offset = function
  | Qc.Pre_prepare -> 0
  | Qc.Prepare -> 1
  | Qc.Precommit -> 2
  | Qc.Commit -> 3

let kind_index m =
  match m.payload with
  | Propose _ -> 0
  | Vote { kind; _ } -> 1 + phase_offset kind
  | Phase_cert qc -> 5 + phase_offset qc.Qc.phase
  | View_change _ -> 9
  | Pre_prepare _ -> 10
  | New_view _ -> 11
  | New_view_proof _ -> 12
  | Fetch _ -> 13
  | Fetch_resp _ -> 14
  | Client_op _ -> 15
  | Client_reply _ -> 16

let kind_name i = kind_names.(i)
let type_name m = kind_names.(kind_index m)

let pp fmt m =
  Format.fprintf fmt "%s(from %d, view %d)" (type_name m) m.sender m.view
