(* Tests for the consensus data model: wire codec, blocks, QCs, rank rules
   (Figures 4 and 5 of the paper), high-QC containers, messages and the
   block store. *)

open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module Threshold = Marlin_crypto.Threshold
module Keychain = Marlin_crypto.Keychain

let kc = Keychain.create ~n:4 ()

(* ---------- helpers ---------- *)

let op client seq body = Operation.make ~client ~seq ~body
let batch ops = Batch.of_list ops

let dummy_ref ?(digest = Sha256.string "blk") ?(block_view = 1) ?(height = 1)
    ?(pview = 0) ?(is_virtual = false) () =
  { Qc.digest; block_view; height; pview; is_virtual }

let make_qc ?(phase = Qc.Prepare) ?(view = 1) ?(block = dummy_ref ()) () =
  let partials =
    List.init 3 (fun i -> Qc.sign_vote kc ~signer:i ~phase ~view block)
  in
  match Qc.combine kc ~threshold:3 ~phase ~view block partials with
  | Ok qc -> qc
  | Error e -> Alcotest.failf "combine failed: %s" e

(* ---------- wire primitives ---------- *)

let test_wire_roundtrip () =
  let enc = Wire.Enc.create () in
  Wire.Enc.u8 enc 0xAB;
  Wire.Enc.varint enc 0;
  Wire.Enc.varint enc 127;
  Wire.Enc.varint enc 128;
  Wire.Enc.varint enc 300_000_000;
  Wire.Enc.bool enc true;
  Wire.Enc.bytes enc "hello";
  Wire.Enc.raw enc "RAW";
  let dec = Wire.Dec.of_string (Wire.Enc.contents enc) in
  Alcotest.(check int) "u8" 0xAB (Wire.Dec.u8 dec);
  Alcotest.(check int) "varint 0" 0 (Wire.Dec.varint dec);
  Alcotest.(check int) "varint 127" 127 (Wire.Dec.varint dec);
  Alcotest.(check int) "varint 128" 128 (Wire.Dec.varint dec);
  Alcotest.(check int) "varint large" 300_000_000 (Wire.Dec.varint dec);
  Alcotest.(check bool) "bool" true (Wire.Dec.bool dec);
  Alcotest.(check string) "bytes" "hello" (Wire.Dec.bytes dec);
  Alcotest.(check string) "raw" "RAW" (Wire.Dec.raw dec 3);
  Alcotest.(check bool) "at end" true (Wire.Dec.at_end dec)

let test_wire_errors () =
  let dec = Wire.Dec.of_string "\xFF" in
  (match Wire.Dec.varint dec with
  | exception Wire.Dec.Decode_error _ -> ()
  | _ -> Alcotest.fail "varint cut after a continuation byte should fail");
  let dec = Wire.Dec.of_string "\x02" in
  match Wire.Dec.bool dec with
  | exception Wire.Dec.Decode_error _ -> ()
  | _ -> Alcotest.fail "bool 2 should fail"

let test_varint_size () =
  List.iter
    (fun v ->
      let enc = Wire.Enc.create () in
      Wire.Enc.varint enc v;
      Alcotest.(check int)
        (Printf.sprintf "varint_size %d" v)
        (String.length (Wire.Enc.contents enc))
        (Wire.varint_size v))
    [ 0; 1; 127; 128; 16383; 16384; 1_000_000; max_int / 2 ]

(* ---------- operations and batches ---------- *)

let test_batch_roundtrip () =
  let b = batch [ op 1 1 "aaa"; op 2 7 ""; op 3 9 (String.make 150 'x') ] in
  let enc = Wire.Enc.create () in
  Batch.encode enc b;
  let s = Wire.Enc.contents enc in
  Alcotest.(check int) "wire_size matches encoding" (String.length s)
    (Batch.wire_size b);
  let b' = Batch.decode (Wire.Dec.of_string s) in
  Alcotest.(check bool) "roundtrip equal" true (Batch.equal b b');
  Alcotest.(check bool) "digest stable" true
    (Sha256.equal (Batch.digest b) (Batch.digest b'));
  Alcotest.(check int) "length" 3 (Batch.length b);
  Alcotest.(check bool) "empty is empty" true (Batch.is_empty Batch.empty)

(* ---------- QCs ---------- *)

let test_qc_votes () =
  let block = dummy_ref () in
  let v = Qc.sign_vote kc ~signer:1 ~phase:Qc.Prepare ~view:3 block in
  Alcotest.(check bool) "vote verifies" true
    (Qc.verify_vote kc ~phase:Qc.Prepare ~view:3 block v);
  Alcotest.(check bool) "different phase rejected" false
    (Qc.verify_vote kc ~phase:Qc.Commit ~view:3 block v);
  Alcotest.(check bool) "different view rejected" false
    (Qc.verify_vote kc ~phase:Qc.Prepare ~view:4 block v);
  Alcotest.(check bool) "different block rejected" false
    (Qc.verify_vote kc ~phase:Qc.Prepare ~view:3
       (dummy_ref ~height:2 ())
       v)

let test_qc_combine_verify () =
  let qc = make_qc ~view:5 () in
  Alcotest.(check bool) "combined verifies" true (Qc.verify kc ~threshold:3 qc);
  Alcotest.(check bool) "tampered view fails" false
    (Qc.verify kc ~threshold:3 { qc with Qc.view = 6 });
  Alcotest.(check bool) "genesis verifies" true
    (Qc.verify kc ~threshold:3 Qc.genesis);
  Alcotest.(check bool) "genesis recognized" true (Qc.is_genesis Qc.genesis);
  Alcotest.(check bool) "non-genesis not genesis" false (Qc.is_genesis qc)

let test_qc_codec () =
  let qc = make_qc ~phase:Qc.Pre_prepare ~view:9 ~block:(dummy_ref ~is_virtual:true ()) () in
  let enc = Wire.Enc.create () in
  Qc.encode enc qc;
  let qc' = Qc.decode (Wire.Dec.of_string (Wire.Enc.contents enc)) in
  Alcotest.(check bool) "codec roundtrip" true (Qc.equal qc qc');
  Alcotest.(check bool) "decoded still verifies" true (Qc.verify kc ~threshold:3 qc')

(* ---------- blocks ---------- *)

let test_block_basics () =
  let g = Block.genesis in
  Alcotest.(check bool) "genesis digest = genesis_ref" true
    (Sha256.equal (Block.digest g) Qc.genesis_ref.Qc.digest);
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let b1 =
    Block.make_normal ~parent:g ~view:1 ~payload:(batch [ op 1 1 "x" ])
      ~justify:(Block.J_qc qc)
  in
  Alcotest.(check int) "height" 1 b1.Block.height;
  Alcotest.(check int) "pview" 0 b1.Block.pview;
  Alcotest.(check bool) "not virtual" false (Block.is_virtual b1);
  (match b1.Block.pl with
  | Block.Hash d -> Alcotest.(check bool) "pl = parent digest" true (Sha256.equal d (Block.digest g))
  | Block.Root | Block.Nil -> Alcotest.fail "expected Hash parent link");
  let vb =
    Block.make_virtual ~pview:1 ~view:2 ~height:3 ~payload:Batch.empty
      ~justify:(Block.J_qc qc)
  in
  Alcotest.(check bool) "virtual" true (Block.is_virtual vb);
  let r = Block.to_ref vb in
  Alcotest.(check bool) "ref is_virtual" true r.Qc.is_virtual;
  Alcotest.(check int) "ref height" 3 r.Qc.height

let test_block_codec () =
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let vc = make_qc ~view:1 ~block:(Block.to_ref g) ~phase:Qc.Prepare () in
  let b =
    Block.make_normal ~parent:g ~view:2 ~payload:(batch [ op 1 1 "abc"; op 2 2 "d" ])
      ~justify:(Block.J_paired (qc, vc))
  in
  let enc = Wire.Enc.create () in
  Block.encode enc b;
  let b' = Block.decode (Wire.Dec.of_string (Wire.Enc.contents enc)) in
  Alcotest.(check bool) "roundtrip preserves digest" true (Block.equal b b');
  Alcotest.(check bool) "justify preserved" true
    (Block.justify_equal b.Block.justify b'.Block.justify)

let test_block_digest_distinguishes () =
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let payload = batch [ op 1 1 "same" ] in
  let b1 = Block.make_normal ~parent:g ~view:1 ~payload ~justify:(Block.J_qc qc) in
  let b2 = Block.make_normal ~parent:g ~view:2 ~payload ~justify:(Block.J_qc qc) in
  Alcotest.(check bool) "view changes digest" false (Block.equal b1 b2);
  (* shadow pair: same payload, different shape *)
  let virt =
    Block.make_virtual ~pview:1 ~view:2 ~height:2 ~payload ~justify:(Block.J_qc qc)
  in
  Alcotest.(check bool) "virtual sibling differs" false (Block.equal b2 virt);
  Alcotest.(check bool) "shadow shares payload digest" true
    (Sha256.equal (Batch.digest b2.Block.payload) (Batch.digest virt.Block.payload))

let test_block_sizes () =
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let payload = batch [ op 1 1 (String.make 150 'p') ] in
  let b = Block.make_normal ~parent:g ~view:1 ~payload ~justify:(Block.J_qc qc) in
  let sig_bytes = 100 in
  Alcotest.(check int) "header + payload = wire"
    (Block.wire_size ~sig_bytes b)
    (Block.header_size ~sig_bytes b + Batch.wire_size payload);
  Alcotest.(check bool) "header excludes payload" true
    (Block.header_size ~sig_bytes b < 300)

(* ---------- rank (Figures 4 and 5) ---------- *)

let qc_with ~phase ~view ~height =
  (* Rank only inspects phase/view/height, so a light-weight QC is enough. *)
  {
    Qc.phase;
    view;
    block = dummy_ref ~block_view:view ~height ();
    tsig = { Threshold.signers = [ 0; 1; 2 ]; tag = Sha256.string "t" };
  }

let test_rank_figure4 () =
  let check name expected a b =
    Alcotest.(check string) name expected (Format.asprintf "%a" Rank.pp_ord (Rank.qc a b))
  in
  (* (a) higher view wins *)
  check "rule a" ">" (qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:1)
    (qc_with ~phase:Qc.Commit ~view:2 ~height:9);
  (* (b) same view, PREPARE/COMMIT > PRE-PREPARE *)
  check "rule b prepare" ">" (qc_with ~phase:Qc.Prepare ~view:3 ~height:1)
    (qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:5);
  check "rule b commit" ">" (qc_with ~phase:Qc.Commit ~view:3 ~height:1)
    (qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:5);
  (* (c) same view, both PREPARE/COMMIT, height decides *)
  check "rule c" ">" (qc_with ~phase:Qc.Prepare ~view:3 ~height:7)
    (qc_with ~phase:Qc.Commit ~view:3 ~height:6);
  (* two pre-prepares in a view tie regardless of height (Lemma 4, Case V3) *)
  check "pre-prepare tie" "=" (qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:9)
    (qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:2);
  check "prepare = commit same height" "="
    (qc_with ~phase:Qc.Prepare ~view:3 ~height:4)
    (qc_with ~phase:Qc.Commit ~view:3 ~height:4)

(* Figure 5's worked example: qc1..qc4 plus qc'3. *)
let test_rank_figure5 () =
  let qc1 = qc_with ~phase:Qc.Prepare ~view:2 ~height:1 in
  let qc2 = qc_with ~phase:Qc.Prepare ~view:2 ~height:2 in
  let qc3 = qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:3 in
  let qc3' = qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:4 in
  let qc4 = qc_with ~phase:Qc.Prepare ~view:3 ~height:3 in
  Alcotest.(check bool) "rank qc3' > qc2 (rule a)" true (Rank.qc_gt qc3' qc2);
  Alcotest.(check bool) "rank qc4 > qc3 (rule b)" true (Rank.qc_gt qc4 qc3);
  Alcotest.(check bool) "rank qc4 > qc3' (rule b)" true (Rank.qc_gt qc4 qc3');
  Alcotest.(check bool) "rank qc2 > qc1 (rule c)" true (Rank.qc_gt qc2 qc1);
  Alcotest.(check bool) "qc3 = qc3' despite heights" true
    (Rank.qc qc3 qc3' = Rank.Eq)

let test_rank_block () =
  let summary ~view ~height ~justify_current =
    { Block.b_ref = dummy_ref ~block_view:view ~height (); justify_current }
  in
  let b1 = summary ~view:2 ~height:5 ~justify_current:true in
  let b2 = summary ~view:2 ~height:4 ~justify_current:true in
  let b3 = summary ~view:2 ~height:6 ~justify_current:false in
  let b4 = summary ~view:3 ~height:1 ~justify_current:false in
  Alcotest.(check bool) "height orders with current justify" true (Rank.block_gt b1 b2);
  Alcotest.(check bool) "stale justify does not outrank" false (Rank.block_gt b3 b1);
  Alcotest.(check bool) "nor is it outranked (same view, lower height)" false
    (Rank.block_gt b1 b3);
  Alcotest.(check bool) "higher view always outranks" true (Rank.block_gt b4 b1)

let test_rank_max () =
  let a = qc_with ~phase:Qc.Prepare ~view:2 ~height:3 in
  let b = qc_with ~phase:Qc.Prepare ~view:3 ~height:1 in
  Alcotest.(check bool) "max picks higher view" true (Qc.equal (Rank.max_qc a b) b);
  let c = qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:7 in
  let d = qc_with ~phase:Qc.Pre_prepare ~view:3 ~height:9 in
  Alcotest.(check bool) "ties keep left" true (Qc.equal (Rank.max_qc c d) c)

(* ---------- high QC ---------- *)

let test_high_qc () =
  let qc = make_qc ~phase:Qc.Pre_prepare ~view:4 ~block:(dummy_ref ~is_virtual:true ()) () in
  let vc = make_qc ~phase:Qc.Prepare ~view:3 () in
  let paired = High_qc.Paired (qc, vc) in
  Alcotest.(check bool) "primary of pair is the pre-prepareQC" true
    (Qc.equal (High_qc.primary paired) qc);
  let enc = Wire.Enc.create () in
  High_qc.encode enc paired;
  let paired' = High_qc.decode (Wire.Dec.of_string (Wire.Enc.contents enc)) in
  Alcotest.(check bool) "codec roundtrip" true (High_qc.equal paired paired');
  (match High_qc.of_justify (High_qc.to_justify paired) with
  | Some h -> Alcotest.(check bool) "justify roundtrip" true (High_qc.equal h paired)
  | None -> Alcotest.fail "of_justify returned None");
  Alcotest.(check bool) "genesis justify has no high qc" true
    (High_qc.of_justify Block.J_genesis = None);
  let single = High_qc.Single (make_qc ~view:9 ()) in
  Alcotest.(check bool) "max_by_rank picks higher" true
    (High_qc.equal (High_qc.max_by_rank paired single) single)

(* ---------- messages ---------- *)

let sample_messages () =
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let b1 =
    Block.make_normal ~parent:g ~view:1 ~payload:(batch [ op 1 1 "aa" ])
      ~justify:(Block.J_qc qc)
  in
  let vb =
    Block.make_virtual ~pview:1 ~view:2 ~height:2 ~payload:(batch [ op 1 1 "aa" ])
      ~justify:(Block.J_qc qc)
  in
  let partial = Qc.sign_vote kc ~signer:2 ~phase:Qc.Prepare ~view:1 (Block.to_ref b1) in
  [
    Message.make ~sender:0 ~view:1 (Message.Propose { block = b1; justify = High_qc.Single qc });
    Message.make ~sender:2 ~view:1
      (Message.Vote { kind = Qc.Prepare; block = Block.to_ref b1; partial; locked = None });
    Message.make ~sender:2 ~view:2
      (Message.Vote { kind = Qc.Pre_prepare; block = Block.to_ref vb; partial; locked = Some qc });
    Message.make ~sender:0 ~view:1 (Message.Phase_cert qc);
    Message.make ~sender:3 ~view:2
      (Message.View_change { last = Block.summary b1; justify = High_qc.Single qc; parsig = partial });
    Message.make ~sender:1 ~view:2 (Message.Pre_prepare { proposals = [ b1; vb ] });
    Message.make ~sender:1 ~view:2 (Message.New_view { justify = qc });
    Message.make ~sender:9 ~view:0 (Message.Client_op (op 9 42 "body"));
    Message.make ~sender:0 ~view:0 (Message.Client_reply { client = 9; seq = 42 });
  ]

let test_message_roundtrips () =
  List.iter
    (fun m ->
      let m' = Message.decode_string (Message.encode_string m) in
      Alcotest.(check string)
        (Message.type_name m ^ " roundtrip")
        (Message.encode_string m) (Message.encode_string m'))
    (sample_messages ())

let test_message_accounting () =
  let msgs = sample_messages () in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Message.type_name m ^ " has positive size")
        true
        (Message.wire_size ~sig_bytes:100 m > 0))
    msgs;
  (* A vote carries one authenticator, two with a piggybacked lockedQC. *)
  let vote = List.nth msgs 1 and vote_locked = List.nth msgs 2 in
  Alcotest.(check int) "vote auths" 1 (Message.authenticators vote);
  Alcotest.(check int) "vote+locked auths" 2 (Message.authenticators vote_locked);
  Alcotest.(check int) "client op auths" 0
    (Message.authenticators (List.nth msgs 7))

let test_shadow_block_saving () =
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let payload = batch [ op 1 1 (String.make 2000 'z') ] in
  let b1 = Block.make_normal ~parent:g ~view:2 ~payload ~justify:(Block.J_qc qc) in
  let vb = Block.make_virtual ~pview:1 ~view:2 ~height:2 ~payload ~justify:(Block.J_qc qc) in
  let single =
    Message.wire_size ~sig_bytes:100
      (Message.make ~sender:0 ~view:2 (Message.Pre_prepare { proposals = [ b1 ] }))
  in
  let double =
    Message.wire_size ~sig_bytes:100
      (Message.make ~sender:0 ~view:2 (Message.Pre_prepare { proposals = [ b1; vb ] }))
  in
  (* The sibling ships as a shadow: metadata only, payload not repeated. *)
  Alcotest.(check bool) "second proposal costs < 300B extra" true
    (double - single < 300)

(* ---------- block store ---------- *)

let test_block_store_basics () =
  let store = Block_store.create () in
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let b1 = Block.make_normal ~parent:g ~view:1 ~payload:(batch [ op 1 1 "a" ]) ~justify:(Block.J_qc qc) in
  let b2 = Block.make_normal ~parent:b1 ~view:1 ~payload:(batch [ op 1 2 "b" ]) ~justify:(Block.J_qc qc) in
  Block_store.add store b1;
  Block_store.add store b2;
  Alcotest.(check int) "size" 3 (Block_store.size store);
  Alcotest.(check bool) "find" true (Block_store.mem store (Block.digest b1));
  (match Block_store.parent store b2 with
  | Some p -> Alcotest.(check bool) "parent of b2 is b1" true (Block.equal p b1)
  | None -> Alcotest.fail "parent missing");
  Alcotest.(check bool) "b2 extends genesis" true
    (Block_store.extends store ~descendant:b2 ~ancestor:(Block.digest g));
  Alcotest.(check bool) "b2 extends itself" true
    (Block_store.extends store ~descendant:b2 ~ancestor:(Block.digest b2));
  Alcotest.(check bool) "b1 does not extend b2" false
    (Block_store.extends store ~descendant:b1 ~ancestor:(Block.digest b2))

let test_block_store_commit () =
  let store = Block_store.create () in
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let b1 = Block.make_normal ~parent:g ~view:1 ~payload:(batch [ op 1 1 "a" ]) ~justify:(Block.J_qc qc) in
  let b2 = Block.make_normal ~parent:b1 ~view:1 ~payload:(batch [ op 1 2 "b" ]) ~justify:(Block.J_qc qc) in
  let c1 = Block.make_normal ~parent:g ~view:2 ~payload:(batch [ op 2 1 "conflict" ]) ~justify:(Block.J_qc qc) in
  Block_store.add store b1;
  Block_store.add store b2;
  Block_store.add store c1;
  (match Block_store.commit store b2 with
  | Ok blocks ->
      Alcotest.(check int) "commits b1 then b2" 2 (List.length blocks);
      Alcotest.(check bool) "oldest first" true (Block.equal (List.hd blocks) b1)
  | Error e -> Alcotest.failf "commit failed: %s" e);
  Alcotest.(check int) "committed count" 2 (Block_store.committed_count store);
  (match Block_store.commit store b2 with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "recommit yielded blocks"
  | Error e -> Alcotest.failf "recommit failed: %s" e);
  (match Block_store.commit store b1 with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "committing an ancestor should be a no-op");
  match Block_store.commit store c1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conflicting commit must fail"

let test_block_store_virtual_resolution () =
  let store = Block_store.create () in
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let b1 = Block.make_normal ~parent:g ~view:1 ~payload:Batch.empty ~justify:(Block.J_qc qc) in
  let vb = Block.make_virtual ~pview:1 ~view:2 ~height:2 ~payload:(batch [ op 1 9 "v" ]) ~justify:(Block.J_qc qc) in
  Block_store.add store b1;
  Block_store.add store vb;
  Alcotest.(check bool) "unresolved virtual has no parent" true
    (Block_store.parent store vb = None);
  Alcotest.(check bool) "unresolved virtual extends nothing" false
    (Block_store.extends store ~descendant:vb ~ancestor:(Block.digest g));
  Block_store.resolve_virtual_parent store ~virtual_digest:(Block.digest vb)
    ~parent_digest:(Block.digest b1);
  (match Block_store.parent store vb with
  | Some p -> Alcotest.(check bool) "resolved parent" true (Block.equal p b1)
  | None -> Alcotest.fail "parent still missing");
  Alcotest.(check bool) "resolved virtual extends genesis" true
    (Block_store.extends store ~descendant:vb ~ancestor:(Block.digest g));
  match Block_store.commit store vb with
  | Ok blocks -> Alcotest.(check int) "commits b1 and vb" 2 (List.length blocks)
  | Error e -> Alcotest.failf "virtual commit failed: %s" e

(* Agreement over stores: b1 <- b2 on one branch, c1 <- c2 forking from
   genesis. Each store holds every block and commits up to [head]. *)
let test_block_store_agree () =
  let g = Block.genesis in
  let qc = make_qc ~view:1 ~block:(Block.to_ref g) () in
  let block parent view body =
    Block.make_normal ~parent ~view ~payload:(batch [ op view 1 body ]) ~justify:(Block.J_qc qc)
  in
  let b1 = block g 1 "b1" in
  let b2 = block b1 2 "b2" in
  let c1 = block g 3 "c1" in
  let c2 = block c1 4 "c2" in
  let committed head =
    let store = Block_store.create () in
    List.iter (Block_store.add store) [ b1; b2; c1; c2 ];
    (match Block_store.commit store head with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "commit failed: %s" e);
    store
  in
  Alcotest.(check bool) "a lagging store on the branch agrees" true
    (Block_store.agree [ committed b1; committed b2; Block_store.create () ]);
  Alcotest.(check bool) "two forks at equal height disagree" false
    (Block_store.agree [ committed b2; committed c2 ]);
  Alcotest.(check bool) "a lagging head off the longest branch disagrees" false
    (Block_store.agree [ committed c1; committed b2 ]);
  Alcotest.(check bool) "the empty list agrees" true (Block_store.agree [])

(* ---------- property tests ---------- *)

let gen_qc =
  QCheck.Gen.(
    let* view = 0 -- 20 in
    let* height = 0 -- 30 in
    let* phase = oneofl [ Qc.Pre_prepare; Qc.Prepare; Qc.Commit ] in
    return (qc_with ~phase ~view ~height))

let arb_qc = QCheck.make ~print:(Format.asprintf "%a" Qc.pp) gen_qc

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"rank is antisymmetric" (pair arb_qc arb_qc)
      (fun (a, b) ->
        match (Rank.qc a b, Rank.qc b a) with
        | Rank.Gt, Rank.Lt | Rank.Lt, Rank.Gt | Rank.Eq, Rank.Eq -> true
        | _ -> false);
    Test.make ~count:500 ~name:"rank is transitive" (triple arb_qc arb_qc arb_qc)
      (fun (a, b, c) ->
        (* geq is transitive on this preorder *)
        if Rank.qc_geq a b && Rank.qc_geq b c then Rank.qc_geq a c else true);
    Test.make ~count:500 ~name:"max_qc is an upper bound" (pair arb_qc arb_qc)
      (fun (a, b) ->
        let m = Rank.max_qc a b in
        Rank.qc_geq m a && Rank.qc_geq m b);
    Test.make ~count:200 ~name:"operation codec roundtrip"
      (triple small_nat small_nat (string_of_size Gen.(0 -- 200)))
      (fun (client, seq, body) ->
        let o = op client seq body in
        let enc = Wire.Enc.create () in
        Operation.encode enc o;
        let s = Wire.Enc.contents enc in
        String.length s = Operation.wire_size o
        && Operation.equal o (Operation.decode (Wire.Dec.of_string s)));
    Test.make ~count:500 ~name:"decoder is total on junk (Decode_error, never a crash)"
      (string_of_size Gen.(0 -- 400))
      (fun junk ->
        match Message.decode_string junk with
        | (_ : Message.t) -> true
        | exception Wire.Dec.Decode_error _ -> true);
    Test.make ~count:200 ~name:"message roundtrip survives bit flips or rejects"
      (pair small_nat (string_of_size Gen.(10 -- 60)))
      (fun (pos, body) ->
        let m =
          Message.make ~sender:1 ~view:2 (Message.Client_op (op 3 4 body))
        in
        let s = Bytes.of_string (Message.encode_string m) in
        let appended_rejected =
          match Message.decode_string (Bytes.to_string s ^ body) with
          | (_ : Message.t) -> false
          | exception Wire.Dec.Decode_error _ -> true
        in
        let i = pos mod Bytes.length s in
        Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x20));
        appended_rejected
        &&
        match Message.decode_string (Bytes.to_string s) with
        | (_ : Message.t) -> true (* decoded to something; fine *)
        | exception Wire.Dec.Decode_error _ -> true);
    Test.make ~count:100 ~name:"batch codec roundtrip"
      (list_of_size Gen.(0 -- 20) (pair small_nat (string_of_size Gen.(0 -- 50))))
      (fun ops ->
        let b = batch (List.mapi (fun i (c, body) -> op c i body) ops) in
        let enc = Wire.Enc.create () in
        Batch.encode enc b;
        Batch.equal b (Batch.decode (Wire.Dec.of_string (Wire.Enc.contents enc))));
  ]

let of_hex hex =
  String.init (String.length hex / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))

(* Fixed cases for the junk property above: nine-byte varints whose last
   byte sets bit 62 once decoded to a negative length, which String.sub
   and List.init rejected with Invalid_argument. Random junk almost never
   has eight continuation bytes in a row. *)
let test_varint_overflow () =
  let overflow = "80808080808080807f" in
  List.iter
    (fun hex ->
      match Message.decode_string (of_hex hex) with
      | (_ : Message.t) -> Alcotest.failf "%s decoded" hex
      | exception Wire.Dec.Decode_error _ -> ())
    [ "0000060000" ^ overflow; "000004" ^ overflow ];
  let enc = Wire.Enc.create () in
  Wire.Enc.varint enc max_int;
  Alcotest.(check int) "max_int still round-trips" max_int
    (Wire.Dec.varint (Wire.Dec.of_string (Wire.Enc.contents enc)))

(* A message is the whole string: a valid encoding followed by anything
   else is rejected, not decoded to its prefix. *)
let test_trailing_bytes () =
  let reply = Message.make ~sender:0 ~view:0 (Message.Client_reply { client = 9; seq = 42 }) in
  let s = Message.encode_string reply in
  Alcotest.(check string) "the encoding alone decodes" s
    (Message.encode_string (Message.decode_string s));
  match Message.decode_string (s ^ "TRAILING-JUNK") with
  | (_ : Message.t) -> Alcotest.fail "a CLIENT-REPLY with trailing bytes decoded"
  | exception Wire.Dec.Decode_error _ -> ()

let test_batch_count_bound () =
  (* Propose headers whose batch claims 2^26, 2^40 and 2^55 ops, followed
     by one 3-byte op. The count must be rejected before an array of that
     length is allocated: it would take 512 MB, or raise Out_of_memory or
     Invalid_argument, none of them a Decode_error. *)
  let propose = "00000000000000" and one_op = "000000" in
  List.iter
    (fun count ->
      let hex = propose ^ count ^ one_op in
      let before = Gc.allocated_bytes () in
      (match Message.decode_string (of_hex hex) with
      | (_ : Message.t) -> Alcotest.failf "%s decoded" hex
      | exception Wire.Dec.Decode_error _ -> ());
      if Gc.allocated_bytes () -. before > 1e6 then
        Alcotest.failf "%s allocated %.0f bytes before failing" hex
          (Gc.allocated_bytes () -. before))
    [ "80808020"; "808080808020"; "8080808080808040" ]

(* ---------- pair tables ---------- *)

(* Keys come from a few values per half, extremes and negatives included,
   so tables collide, wrap their probe runs past the last slot, and close
   holes by backward shift; no key value marks an empty slot. The
   [Slot_*] ops make the same changes through the slot-level calls: one
   [Pair_tbl.slot] probe, then [set] or [insert] at its answer, [get] at
   it, or [remove_slot] there. An insert that grows the table gets a hint
   of the old arrays. *)
type pair_op =
  | Replace of int * int * int
  | Remove of int * int
  | Find of int * int
  | Reset
  | Slot_replace of int * int * int
  | Slot_remove of int * int
  | Slot_find of int * int

let pair_op_gen =
  let open QCheck.Gen in
  let half = oneof [ oneofl [ min_int; max_int; -1; 0; 1; 2; -7 ]; int_range (-3) 12 ] in
  frequency
    [
      (6, map3 (fun c s v -> Replace (c, s, v)) half half (int_range 0 254));
      (3, map2 (fun c s -> Remove (c, s)) half half);
      (3, map2 (fun c s -> Find (c, s)) half half);
      (1, return Reset);
      (6, map3 (fun c s v -> Slot_replace (c, s, v)) half half (int_range 0 254));
      (3, map2 (fun c s -> Slot_remove (c, s)) half half);
      (3, map2 (fun c s -> Slot_find (c, s)) half half);
    ]

let print_pair_op = function
  | Replace (c, s, v) -> Printf.sprintf "replace (%d,%d) %d" c s v
  | Remove (c, s) -> Printf.sprintf "remove (%d,%d)" c s
  | Find (c, s) -> Printf.sprintf "find (%d,%d)" c s
  | Reset -> "reset"
  | Slot_replace (c, s, v) -> Printf.sprintf "slot-replace (%d,%d) %d" c s v
  | Slot_remove (c, s) -> Printf.sprintf "slot-remove (%d,%d)" c s
  | Slot_find (c, s) -> Printf.sprintf "slot-find (%d,%d)" c s

let pair_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_pair_op ops))
    QCheck.Gen.(list_size (int_range 1 300) pair_op_gen)

let bindings_sorted l =
  List.sort
    (fun (c, s, v) (c', s', v') ->
      match Int.compare c c' with
      | 0 -> ( match Int.compare s s' with 0 -> Int.compare v v' | k -> k)
      | k -> k)
    l

(* Replays [ops] on [t] and on a Stdlib.Hashtbl model, comparing every
   answer, the length after each step and the full contents via [fold]. *)
let agrees_with_model (t : int Pair_tbl.t) ops =
  let model = Hashtbl.create 16 in
  let contents () =
    bindings_sorted (Pair_tbl.fold (fun c s v acc -> (c, s, v) :: acc) t [])
  and model_contents () =
    bindings_sorted (Hashtbl.fold (fun (c, s) v acc -> (c, s, v) :: acc) model [])
  in
  List.for_all
    (fun op ->
      let answers_agree =
        match op with
        | Replace (c, s, v) ->
            Pair_tbl.replace t c s v;
            Hashtbl.replace model (c, s) v;
            true
        | Remove (c, s) ->
            Pair_tbl.remove t c s;
            Hashtbl.remove model (c, s);
            true
        | Find (c, s) ->
            let got =
              match Pair_tbl.find t c s with
              | v -> Some v
              | exception Not_found -> None
            in
            Option.equal Int.equal got (Hashtbl.find_opt model (c, s))
            && Bool.equal (Pair_tbl.mem t c s) (Hashtbl.mem model (c, s))
        | Reset ->
            Pair_tbl.reset t;
            Hashtbl.reset model;
            true
        | Slot_replace (c, s, v) ->
            let i = Pair_tbl.slot t c s in
            if i >= 0 then Pair_tbl.set t i v else Pair_tbl.insert t ~hint:i c s v;
            Hashtbl.replace model (c, s) v;
            true
        | Slot_remove (c, s) ->
            let i = Pair_tbl.slot t c s in
            if i >= 0 then Pair_tbl.remove_slot t i;
            Hashtbl.remove model (c, s);
            true
        | Slot_find (c, s) ->
            let i = Pair_tbl.slot t c s in
            Option.equal Int.equal
              (if i >= 0 then Some (Pair_tbl.get t i) else None)
              (Hashtbl.find_opt model (c, s))
      in
      answers_agree
      && Pair_tbl.length t = Hashtbl.length model
      && contents () = model_contents ())
    ops

let pair_tbl_cases =
  [
    QCheck.Test.make ~count:400 ~name:"pair table matches a Hashtbl model"
      pair_ops_arb (fun ops -> agrees_with_model (Pair_tbl.create ~dummy:0 0) ops);
    QCheck.Test.make ~count:400
      ~name:"byte-valued pair table matches a Hashtbl model" pair_ops_arb
      (fun ops -> agrees_with_model (Pair_tbl.create_bytes 0) ops);
  ]

let test_pair_tbl_byte_range () =
  let t = Pair_tbl.create_bytes 4 in
  Pair_tbl.replace t 1 1 254;
  Alcotest.(check int) "254 fits" 254 (Pair_tbl.find t 1 1);
  List.iter
    (fun v ->
      Alcotest.check_raises (Printf.sprintf "%d rejected" v)
        (Invalid_argument "Pair_tbl.replace: byte value outside [0, 254]")
        (fun () -> Pair_tbl.replace t 2 2 v))
    [ -1; 255 ];
  Alcotest.(check int) "a rejected value binds nothing" 1 (Pair_tbl.length t)

(* Every insert goes through a hint, so every growth happens inside an
   insert whose hint is a slot of the arrays it replaces; the key must
   still land where a search finds it. Misused slots are refused. *)
let test_pair_tbl_hint_across_growth () =
  List.iter
    (fun (name, (t : int Pair_tbl.t)) ->
      let keys = 1000 in
      for k = 0 to keys - 1 do
        let hint = Pair_tbl.slot t k (-k) in
        Alcotest.(check bool) (name ^ ": an absent key gives a hint") true (hint < 0);
        Pair_tbl.insert t ~hint k (-k) (k land 127)
      done;
      Alcotest.(check int) (name ^ ": every insert bound a key") keys (Pair_tbl.length t);
      for k = 0 to keys - 1 do
        let i = Pair_tbl.slot t k (-k) in
        if i < 0 || Pair_tbl.get t i <> k land 127 then
          Alcotest.failf "%s: key %d lost across a growth" name k
      done;
      let occupied = Pair_tbl.slot t 0 0 and empty = Pair_tbl.slot t (-1) (-1) in
      let raises what f =
        match f () with
        | () -> Alcotest.failf "%s: %s was accepted" name what
        | exception Invalid_argument _ -> ()
      in
      raises "an occupied slot as a hint" (fun () ->
          Pair_tbl.insert t ~hint:occupied (-1) (-1) 1);
      raises "get at an empty slot" (fun () -> ignore (Pair_tbl.get t (lnot empty)));
      raises "set at an empty slot" (fun () -> Pair_tbl.set t (lnot empty) 1);
      raises "remove_slot at an empty slot" (fun () ->
          Pair_tbl.remove_slot t (lnot empty));
      Alcotest.(check int) (name ^ ": refused calls change nothing") keys
        (Pair_tbl.length t))
    [ ("boxed", Pair_tbl.create ~dummy:0 0); ("bytes", Pair_tbl.create_bytes 0) ]

(* Once grown, the hot calls allocate nothing: keys stay unboxed and
   statuses live in the marker byte. *)
let test_pair_tbl_no_alloc () =
  let keys = 100_000 in
  let boxed = Pair_tbl.create ~dummy:0 16 and bytes = Pair_tbl.create_bytes 16 in
  for i = 0 to keys - 1 do
    Pair_tbl.replace boxed i (-i) i;
    Pair_tbl.replace bytes (-i) i (i land 127)
  done;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to keys - 1 do
    if Pair_tbl.mem boxed i (-i) then incr hits;
    if Pair_tbl.mem bytes i (i + 1) then incr hits;
    hits := !hits + Pair_tbl.find boxed i (-i) + Pair_tbl.find bytes (-i) i;
    Pair_tbl.replace boxed i (-i) (i + 1);
    Pair_tbl.replace bytes (-i) i 200
  done;
  (* the slot-level calls: a read-modify-write at one probe, then a
     removal at it and a re-insert at the hint that removal leaves *)
  for i = 0 to keys - 1 do
    let b = Pair_tbl.slot boxed i (-i) and y = Pair_tbl.slot bytes (-i) i in
    Pair_tbl.set boxed b (Pair_tbl.get boxed b + 1);
    Pair_tbl.set bytes y (Pair_tbl.get bytes y - 1);
    Pair_tbl.remove_slot boxed b;
    Pair_tbl.remove_slot bytes y;
    Pair_tbl.insert boxed ~hint:(Pair_tbl.slot boxed i (-i)) i (-i) i;
    Pair_tbl.insert bytes ~hint:(Pair_tbl.slot bytes (-i) i) (-i) i 7
  done;
  for i = 0 to keys - 1 do
    Pair_tbl.remove boxed i (-i);
    Pair_tbl.remove bytes (-i) i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int)
    "minor words for 100k mem/find/replace/remove and slot/get/set/insert/remove_slot" 0
    (int_of_float words);
  Alcotest.(check int) "tables emptied" 0
    (Pair_tbl.length boxed + Pair_tbl.length bytes);
  Alcotest.(check bool) "lookups ran" true (!hits > 0)

let suite =
  [
    ("wire roundtrip", `Quick, test_wire_roundtrip);
    ("wire decode errors", `Quick, test_wire_errors);
    ("varint size", `Quick, test_varint_size);
    ("batch roundtrip & digest", `Quick, test_batch_roundtrip);
    ("qc votes", `Quick, test_qc_votes);
    ("qc combine & verify", `Quick, test_qc_combine_verify);
    ("qc codec", `Quick, test_qc_codec);
    ("block basics", `Quick, test_block_basics);
    ("block codec", `Quick, test_block_codec);
    ("block digest distinguishes", `Quick, test_block_digest_distinguishes);
    ("block sizes", `Quick, test_block_sizes);
    ("rank: Figure 4 rules", `Quick, test_rank_figure4);
    ("rank: Figure 5 example", `Quick, test_rank_figure5);
    ("rank: blocks", `Quick, test_rank_block);
    ("rank: max", `Quick, test_rank_max);
    ("high qc", `Quick, test_high_qc);
    ("message roundtrips", `Quick, test_message_roundtrips);
    ("message accounting", `Quick, test_message_accounting);
    ("shadow blocks save bandwidth", `Quick, test_shadow_block_saving);
    ("block store basics", `Quick, test_block_store_basics);
    ("block store commit", `Quick, test_block_store_commit);
    ("block store virtual resolution", `Quick, test_block_store_virtual_resolution);
    ("block store agreement", `Quick, test_block_store_agree);
  ]
  @ List.map QCheck_alcotest.to_alcotest (qcheck_cases @ pair_tbl_cases)
  @ [ ("pair table rejects bytes outside [0, 254]", `Quick, test_pair_tbl_byte_range);
      ("pair table: once grown, mem/find/replace/remove allocate nothing", `Quick,
       test_pair_tbl_no_alloc);
      ("pair table insert hints survive growth", `Quick, test_pair_tbl_hint_across_growth);
      ("decoder rejects overflowing varints", `Quick, test_varint_overflow);
      ("decoder rejects trailing bytes", `Quick, test_trailing_bytes);
      ("decoder rejects batch counts the input cannot hold", `Quick, test_batch_count_bound) ]

let () = Alcotest.run "types" [ ("types", suite) ]
