(* Tests for the crypto substrate: SHA-256 against FIPS/NIST vectors, HMAC
   against RFC 4231 vectors, and the simulated signature schemes. *)

open Marlin_crypto

let check_hex msg expected input =
  Alcotest.(check string) msg expected (Sha256.to_hex (Sha256.string input))

(* NIST FIPS 180-4 examples + RFC 6234 test cases. *)
let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" "";
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" "abc";
  check_hex "448"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  check_hex "896"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
     ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (String.make 1_000_000 'a')

(* Runs of 'a' at every padding boundary: 55 is the longest input whose
   length field fits in its last block, 56-63 force an extra padding
   block, 64/65 straddle a whole block, 119/120 the same one block on.
   Expected digests from coreutils sha256sum. Each length is hashed one
   shot and through a context fed in uneven chunks. *)
let test_sha256_padding_boundaries () =
  let cases =
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
      (119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb");
      (120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c");
      ( 1_000_000,
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (len, expected) ->
      let input = String.make len 'a' in
      check_hex (Printf.sprintf "%d x a, one shot" len) expected input;
      let ctx = Sha256.Ctx.create () in
      let pos = ref 0 and step = ref 1 in
      while !pos < len do
        let take = min !step (len - !pos) in
        Sha256.Ctx.feed_string ctx (String.sub input !pos take);
        pos := !pos + take;
        step := (!step * 7 mod 97) + 1
      done;
      Alcotest.(check string)
        (Printf.sprintf "%d x a, chunked" len)
        expected
        (Sha256.to_hex (Sha256.Ctx.finalize ctx)))
    cases

(* A copy and a context resumed from a midstate are independent of their
   source: feeding and finalizing them leaves it unchanged. *)
let test_sha256_copy_resume () =
  let hex ctx = Sha256.to_hex (Sha256.Ctx.finalize ctx) in
  let block = String.make 64 'b' in
  let ctx = Sha256.Ctx.create () in
  Sha256.Ctx.feed_string ctx block;
  Sha256.Ctx.feed_string ctx "tail";
  let copy = Sha256.Ctx.copy ctx in
  Sha256.Ctx.feed_string copy "more input";
  Alcotest.(check string) "copy sees both feeds"
    (Sha256.to_hex (Sha256.string (block ^ "tailmore input")))
    (hex copy);
  Alcotest.(check string) "original unchanged by the copy"
    (Sha256.to_hex (Sha256.string (block ^ "tail")))
    (hex ctx);
  let ctx = Sha256.Ctx.create () in
  Sha256.Ctx.feed_string ctx block;
  let m = Sha256.Ctx.midstate ctx in
  List.iter
    (fun suffix ->
      let r = Sha256.Ctx.resume m in
      Sha256.Ctx.feed_string r suffix;
      Alcotest.(check string) ("resumed + " ^ suffix)
        (Sha256.to_hex (Sha256.string (block ^ suffix)))
        (hex r))
    [ "x"; ""; block ];
  Sha256.Ctx.feed_string ctx "y";
  Alcotest.check_raises "midstate needs whole blocks"
    (Invalid_argument
       "Sha256.Ctx.midstate: input not a whole number of blocks") (fun () ->
      ignore (Sha256.Ctx.midstate ctx))

(* Feeding the same data in different chunkings must give the same digest. *)
let test_sha256_incremental () =
  let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  let whole = Sha256.string data in
  let chunked sizes =
    let ctx = Sha256.Ctx.create () in
    let pos = ref 0 in
    let rec go = function
      | [] ->
          if !pos < String.length data then
            Sha256.Ctx.feed_string ctx
              (String.sub data !pos (String.length data - !pos))
      | s :: rest ->
          let len = min s (String.length data - !pos) in
          Sha256.Ctx.feed_string ctx (String.sub data !pos len);
          pos := !pos + len;
          go rest
    in
    go sizes;
    Sha256.Ctx.finalize ctx
  in
  List.iter
    (fun sizes ->
      Alcotest.(check string)
        "chunked = whole" (Sha256.to_hex whole)
        (Sha256.to_hex (chunked sizes)))
    [ [ 1 ]; [ 63; 1; 64; 65 ]; [ 64; 64 ]; [ 100; 28; 5000 ]; [ 9999; 1 ] ]

let test_sha256_raw_hex_roundtrip () =
  let d = Sha256.string "roundtrip" in
  Alcotest.(check bool) "of_raw . to_raw" true
    (Sha256.equal d (Sha256.of_raw (Sha256.to_raw d)));
  Alcotest.(check bool) "of_hex . to_hex" true
    (Sha256.equal d (Sha256.of_hex (Sha256.to_hex d)));
  Alcotest.check_raises "of_raw wrong length"
    (Invalid_argument "Sha256.of_raw: need 32 bytes") (fun () ->
      ignore (Sha256.of_raw "short"))

(* RFC 4231 test cases 1, 2, 6 (131-byte key) and 7 (131-byte key, long
   data), through [mac] and through a prepared key. Each prepared key tags
   its message twice, so a chaining state that the first MAC mutated would
   fail the second. *)
let test_hmac_vectors () =
  let check msg ~key ~data expected =
    Alcotest.(check string) msg expected (Sha256.to_hex (Hmac.mac ~key data));
    let prepared = Hmac.prepare key in
    for round = 1 to 2 do
      Alcotest.(check string)
        (Printf.sprintf "%s, prepared, MAC %d" msg round)
        expected
        (Sha256.to_hex (Hmac.mac_prepared ~key:prepared data))
    done
  in
  check "rfc4231 case 1"
    ~key:(String.make 20 '\x0b')
    ~data:"Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "rfc4231 case 2" ~key:"Jefe" ~data:"what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "rfc4231 case 6 (131-byte key)"
    ~key:(String.make 131 '\xaa')
    ~data:"Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  check "rfc4231 case 7 (131-byte key, 152-byte data)"
    ~key:(String.make 131 '\xaa')
    ~data:
      "This is a test using a larger than block-size key and a larger than \
       block-size data. The key needs to be hashed before being used by the \
       HMAC algorithm."
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let test_signature () =
  let kc = Keychain.create ~n:4 () in
  let s = Threshold.sign kc ~signer:2 "hello" in
  Alcotest.(check bool) "valid" true (Threshold.verify_partial kc "hello" s);
  Alcotest.(check bool) "wrong message" false
    (Threshold.verify_partial kc "hellO" s);
  Alcotest.(check bool) "wrong claimed signer" false
    (Threshold.verify_partial kc "hello" { s with signer = 3 });
  Alcotest.(check bool) "out of range signer" false
    (Threshold.verify_partial kc "hello" { s with signer = 9 })

let test_keychain_determinism () =
  let kc1 = Keychain.create ~seed:"s" ~n:4 ()
  and kc2 = Keychain.create ~seed:"s" ~n:4 ()
  and kc3 = Keychain.create ~seed:"other" ~n:4 () in
  Alcotest.(check string) "same seed, same key" (Keychain.secret kc1 1)
    (Keychain.secret kc2 1);
  Alcotest.(check bool) "different seed, different key" false
    (String.equal (Keychain.secret kc1 1) (Keychain.secret kc3 1));
  Alcotest.(check bool) "distinct replicas, distinct keys" false
    (String.equal (Keychain.secret kc1 0) (Keychain.secret kc1 1));
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Keychain.create: n must be positive") (fun () ->
      ignore (Keychain.create ~n:0 ()))

(* ---------- the keychain's MAC memo ---------- *)

(* What [Keychain.mac kc i] must equal, computed without the memo. *)
let direct_mac kc i input =
  let key = if i = Keychain.system then Keychain.system_key kc else Keychain.key kc i in
  Hmac.mac_prepared ~key input

let check_mac kc what i input =
  Alcotest.(check string) what
    (Sha256.to_hex (direct_mac kc i input))
    (Sha256.to_hex (Keychain.mac kc i input))

let test_mac_memo_exact () =
  let n = 5 in
  let kc = Keychain.create ~n () in
  let keys = Keychain.system :: List.init n Fun.id in
  let inputs = [ ""; "m"; "tshare|m"; String.make 700 'x' ] in
  (* every key over the same inputs, so a memo that ignored the key index
     would answer a later key with an earlier key's tag *)
  List.iter
    (fun pass ->
      List.iter
        (fun input ->
          List.iter
            (fun i -> check_mac kc (Printf.sprintf "%s key %d" pass i) i input)
            keys)
        inputs)
    [ "cold"; "warm" ];
  Alcotest.check_raises "index below system"
    (Invalid_argument "Keychain.mac: key index out of range") (fun () ->
      ignore (Keychain.mac kc (-2) "m"));
  Alcotest.check_raises "index n"
    (Invalid_argument "Keychain.mac: key index out of range") (fun () ->
      ignore (Keychain.mac kc n "m"))

let test_mac_memo_bounded () =
  let kc = Keychain.create ~n:4 () in
  let count = (3 * Keychain.memo_capacity) + 1 in
  let input k = Printf.sprintf "input-%d" k in
  for k = 0 to count - 1 do
    check_mac kc "past capacity" (k mod 4) (input k)
  done;
  (* again, now that the early inputs have been evicted and the late
     ones are held *)
  for k = 0 to count - 1 do
    check_mac kc "second pass" (k mod 4) (input k)
  done

let test_mac_memo_per_keychain () =
  let a = Keychain.create ~seed:"a" ~n:4 () and b = Keychain.create ~seed:"b" ~n:4 () in
  List.iter
    (fun i ->
      let ta = Keychain.mac a i "same input" in
      let tb = Keychain.mac b i "same input" in
      Alcotest.(check bool) (Printf.sprintf "key %d differs across seeds" i) false
        (Sha256.equal ta tb);
      check_mac b "second keychain warm" i "same input")
    [ Keychain.system; 0; 3 ]

let test_threshold_combine () =
  let kc = Keychain.create ~n:4 () in
  let msg = "block-digest" in
  let share i = Threshold.sign kc ~signer:i msg in
  let partials = [ share 0; share 1; share 3 ] in
  match Threshold.combine kc ~threshold:3 msg partials with
  | Error e -> Alcotest.failf "combine failed: %s" e
  | Ok t ->
      Alcotest.(check (list int)) "signers sorted" [ 0; 1; 3 ] t.signers;
      Alcotest.(check bool) "verifies" true
        (Threshold.verify kc ~threshold:3 msg t);
      Alcotest.(check bool) "wrong msg fails" false
        (Threshold.verify kc ~threshold:3 "other" t);
      Alcotest.(check bool) "higher threshold fails" false
        (Threshold.verify kc ~threshold:4 msg t)

let test_threshold_insufficient () =
  let kc = Keychain.create ~n:4 () in
  let msg = "m" in
  let share i = Threshold.sign kc ~signer:i msg in
  (* Duplicates do not count twice. *)
  (match Threshold.combine kc ~threshold:3 msg [ share 0; share 0; share 1 ] with
  | Ok _ -> Alcotest.fail "combined with duplicate shares"
  | Error _ -> ());
  (* Invalid shares (wrong message) do not count. *)
  let bad = Threshold.sign kc ~signer:2 "other-msg" in
  match Threshold.combine kc ~threshold:3 msg [ share 0; share 1; bad ] with
  | Ok _ -> Alcotest.fail "combined with an invalid share"
  | Error _ -> ()

(* [aggregate] checks no share, but over checked shares it is [combine]:
   the same signers and tag, duplicates dropped, the threshold enforced
   on distinct signers. [combine] over a list with invalid shares is
   [aggregate] over the valid ones. *)
let test_threshold_aggregate () =
  let kc = Keychain.create ~n:4 () in
  let msg = "m" in
  let share i = Threshold.sign kc ~signer:i msg in
  let result = Alcotest.(result (pair (list int) string) string) in
  let view = Result.map (fun t -> (t.Threshold.signers, Sha256.to_hex t.tag)) in
  let valid = [ share 3; share 0; share 1 ] in
  Alcotest.check result "aggregate = combine on checked shares"
    (view (Threshold.combine kc ~threshold:3 msg valid))
    (view (Threshold.aggregate kc ~threshold:3 msg valid));
  (match Threshold.aggregate kc ~threshold:3 msg (share 1 :: valid) with
  | Ok t ->
      Alcotest.(check (list int)) "duplicate signer counted once" [ 0; 1; 3 ] t.signers;
      Alcotest.(check bool) "verifies" true (Threshold.verify kc ~threshold:3 msg t)
  | Error e -> Alcotest.failf "aggregate failed: %s" e);
  Alcotest.check result "two distinct signers fall short"
    (Error "combine: 2 distinct valid shares, need 3")
    (view (Threshold.aggregate kc ~threshold:3 msg [ share 0; share 0; share 1 ]));
  let bad = Threshold.sign kc ~signer:2 "other-msg" in
  let mixed = [ share 0; bad; share 1; share 3; share 1 ] in
  let smsg = Threshold.share_msg msg in
  Alcotest.check result "combine = aggregate over the valid shares"
    (view (Threshold.aggregate kc ~threshold:3 msg
             (List.filter (Threshold.verify_share kc smsg) mixed)))
    (view (Threshold.combine kc ~threshold:3 msg mixed));
  Alcotest.(check bool) "verify_share = verify_partial" true
    (List.for_all
       (fun p -> Threshold.verify_share kc smsg p = Threshold.verify_partial kc msg p)
       mixed)

let test_threshold_forgery_resistance () =
  let kc = Keychain.create ~n:4 () in
  let msg = "m" in
  let share i = Threshold.sign kc ~signer:i msg in
  match Threshold.combine kc ~threshold:3 msg [ share 0; share 1; share 2 ] with
  | Error e -> Alcotest.failf "combine failed: %s" e
  | Ok t ->
      (* Tampering with the signer list invalidates the certificate. *)
      Alcotest.(check bool) "extended signer list rejected" false
        (Threshold.verify kc ~threshold:3 msg { t with signers = [ 0; 1; 2; 3 ] });
      Alcotest.(check bool) "unsorted signer list rejected" false
        (Threshold.verify kc ~threshold:3 msg { t with signers = [ 1; 0; 2 ] })

(* Tag formats, pinned: a change to the partial-share or the combined-tag
   input ("tsig|<ids>|<msg>") changes these digests. *)
let test_tag_golden () =
  let kc = Keychain.create ~n:7 () in
  let msg = "golden-block" in
  let partials =
    List.init 5 (fun i -> Threshold.sign kc ~signer:(6 - i) msg)
  in
  (match Threshold.combine kc ~threshold:5 msg partials with
  | Error e -> Alcotest.failf "combine failed: %s" e
  | Ok t ->
      Alcotest.(check (list int)) "signers" [ 2; 3; 4; 5; 6 ] t.signers;
      Alcotest.(check string) "combined tag"
        "5184b4bbb390d4ac54bde4ce08547aa9cb30140db308ee7ce15ed671fdb2cd67"
        (Sha256.to_hex t.tag));
  let block =
    {
      Marlin_types.Qc.digest = Sha256.string "golden";
      block_view = 9;
      height = 4;
      pview = 8;
      is_virtual = false;
    }
  in
  let p =
    Marlin_types.Qc.sign_vote kc ~signer:3 ~phase:Marlin_types.Qc.Prepare
      ~view:9 block
  in
  Alcotest.(check string) "vote partial tag"
    "30e72d4e5a2b295c4e95a680cfaa6db198fb18c153976c544314028462e4a0ef"
    (Sha256.to_hex p.tag)

(* [verify]'s signer-list checks, each against a correctly tagged list,
   so only the list's shape can reject it. *)
let test_threshold_verify_signers () =
  let n = 7 and threshold = 5 and msg = "m" in
  let kc = Keychain.create ~n () in
  let signed signers =
    (* the combined tag over exactly this list, built independently of
       [Threshold]'s own encoder *)
    let ids = String.concat "," (List.map string_of_int signers) in
    {
      Threshold.signers;
      tag =
        Hmac.mac_prepared ~key:(Keychain.system_key kc)
          (Printf.sprintf "tsig|%s|%s" ids msg);
    }
  in
  let verdict signers = Threshold.verify kc ~threshold msg (signed signers) in
  Alcotest.(check bool) "exactly threshold" true (verdict [ 0; 2; 3; 5; 6 ]);
  Alcotest.(check bool) "all n" true (verdict [ 0; 1; 2; 3; 4; 5; 6 ]);
  List.iter
    (fun (what, signers) ->
      Alcotest.(check bool) what false (verdict signers))
    [
      ("unsorted", [ 0; 2; 1; 3; 4 ]);
      ("duplicate", [ 0; 1; 1; 2; 3; 4 ]);
      ("negative", [ -1; 0; 1; 2; 3 ]);
      ("signer = n", [ 0; 1; 2; 3; 7 ]);
      ("signer > n", [ 0; 1; 2; 3; 40 ]);
      ("threshold - 1", [ 0; 1; 2; 3 ]);
      ("empty", []);
    ]

let test_cost_model () =
  let open Cost_model in
  Alcotest.(check bool) "pairing verify dwarfs ecdsa verify" true
    (partial_verify_cost bls_pairing > 5. *. partial_verify_cost ecdsa_group);
  Alcotest.(check bool) "combine grows with shares" true
    (combine_cost ecdsa_group ~shares:100 > combine_cost ecdsa_group ~shares:3);
  (* ECDSA-group certificates grow linearly; BLS stays near-constant. *)
  let e n = combined_size ecdsa_group ~n ~shares:(2 * n / 3) in
  let b n = combined_size bls_pairing ~n ~shares:(2 * n / 3) in
  Alcotest.(check bool) "ecdsa cert linear in n" true (e 90 > 20 * (b 90 / 10));
  Alcotest.(check bool) "bls cert near-constant" true (b 900 - b 9 < 120);
  Alcotest.(check bool) "hash cost positive & linear" true
    (hash_cost ~bytes:2000 > hash_cost ~bytes:1000
    && hash_cost ~bytes:1000 > 0.)

(* One bit of a digest flipped. *)
let flip tag =
  let raw = Bytes.of_string (Sha256.to_raw tag) in
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 1));
  Sha256.of_raw (Bytes.to_string raw)

(* Every check on genuine and tampered shares and certificates, answered
   by a keychain that has signed, combined and verified [msg] (and then
   answered the checks once already) and by fresh ones with the same
   seed, a cold keychain per check: neither memo may change a single
   answer. [t] is signed by all n replicas, [q] by exactly [threshold] of
   them; once checked, both sit in the certificate memo, and they are
   probed with equal copies, other signer lists, other messages, other
   thresholds and flipped tags. *)
let memo_transparent (msg, other, who) =
  let n = 7 and threshold = 5 in
  let warm = Keychain.create ~n () in
  let partials = List.init n (fun i -> Threshold.sign warm ~signer:i msg) in
  let combine shares =
    match Threshold.combine warm ~threshold msg shares with
    | Ok t -> t
    | Error e -> failwith e
  in
  let t = combine partials in
  let q =
    combine (List.filteri (fun i _ -> i <> who && i <> (who + 1) mod n) partials)
  in
  let p = List.nth partials who in
  let shares =
    [
      (msg, p);
      (other, p);
      (msg, { p with Threshold.signer = (who + 1) mod n });
      (msg, { p with tag = flip p.tag });
      (msg, { p with signer = n });
      (msg, { p with tag = (List.nth partials ((who + 1) mod n)).tag });
    ]
  in
  let copy s = { s with Threshold.signers = List.map Fun.id s.Threshold.signers } in
  let certs =
    [
      (threshold, msg, t);
      (threshold, msg, copy t);
      (threshold, other, t);
      (threshold, msg, { t with Threshold.tag = flip t.tag });
      (threshold, msg, { t with signers = List.tl t.signers });
      (threshold, msg, { t with signers = List.rev t.signers });
      (threshold, msg, { t with signers = List.filter (fun i -> i <> who) t.signers });
      (threshold, msg, q);
      (threshold, msg, copy q);
      (threshold - 1, msg, q);
      (threshold + 1, msg, q);
      (threshold, other, q);
      (threshold, msg, { q with signers = List.sort Int.compare (who :: q.signers) });
      (threshold, msg, { q with signers = List.tl q.signers });
      (threshold, msg, { q with signers = List.rev q.signers });
    ]
  in
  let checks =
    List.map (fun (m, p) kc -> Threshold.verify_partial kc m p) shares
    @ List.map (fun (threshold, m, s) kc -> Threshold.verify kc ~threshold m s) certs
  in
  let answers kc = List.map (fun check -> check kc) checks in
  let once = answers warm in
  (* each check on its own cold keychain, so no answer comes from a memo *)
  let fresh = List.map (fun check -> check (Keychain.create ~n ())) checks in
  List.hd once && List.equal Bool.equal once fresh
  && List.equal Bool.equal (answers warm) fresh

(* ---------- the keychain's certificate memo ---------- *)

(* [cert_checked] vouches only for the exact recorded input: the same
   threshold, an equal signer list (a copy as well as the same list) and
   the same message under the same tag. *)
let test_cert_memo_contract () =
  let kc = Keychain.create ~n:7 () in
  let tag = Sha256.string "held" and signers = [ 0; 2; 3; 5; 6 ] in
  let checked ?(tag = tag) ?(threshold = 5) ?(msg = "m") signers =
    Keychain.cert_checked kc tag ~threshold signers msg
  in
  Alcotest.(check bool) "empty memo" false (checked signers);
  Keychain.note_cert kc tag ~threshold:5 signers "m";
  Alcotest.(check bool) "same list" true (checked signers);
  Alcotest.(check bool) "equal copy" true (checked (List.map Fun.id signers));
  List.iter
    (fun (what, verdict) -> Alcotest.(check bool) what false verdict)
    [
      ("signer dropped", checked (List.tl signers));
      ("reversed", checked (List.rev signers));
      ("extended", checked (signers @ [ 1 ]));
      ("another message", checked ~msg:"m'" signers);
      ("threshold - 1", checked ~threshold:4 signers);
      ("threshold + 1", checked ~threshold:6 signers);
      ("flipped tag", checked ~tag:(flip tag) signers);
    ];
  Keychain.note_cert kc tag ~threshold:4 signers "m";
  Alcotest.(check bool) "a later entry replaces" false (checked signers)

(* More than twice the capacity in distinct genuine certificates, then
   the first again: warm and fresh keychains agree on it and on a
   tampered copy, whether or not it is still held. *)
let test_cert_memo_bounded () =
  let n = 4 and threshold = 3 in
  let warm = Keychain.create ~n () in
  let cert kc msg =
    match
      Threshold.combine kc ~threshold msg
        (List.init threshold (fun i -> Threshold.sign kc ~signer:i msg))
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "combine failed: %s" e
  in
  let first = cert warm "m-0" in
  let checks =
    [
      (fun kc -> Threshold.verify kc ~threshold "m-0" first);
      (fun kc -> Threshold.verify kc ~threshold:(threshold + 1) "m-0" first);
      (fun kc ->
        Threshold.verify kc ~threshold "m-0" { first with tag = flip first.tag });
    ]
  in
  let probes kc = List.map (fun check -> check kc) checks in
  let expected = List.map (fun check -> check (Keychain.create ~n ())) checks in
  Alcotest.(check (list bool)) "held" expected (probes warm);
  for k = 1 to (2 * Keychain.memo_capacity) + 1 do
    let msg = Printf.sprintf "m-%d" k in
    if not (Threshold.verify warm ~threshold msg (cert warm msg)) then
      Alcotest.failf "certificate %d rejected" k
  done;
  Alcotest.(check (list bool)) "after the memo turned over" expected (probes warm);
  Alcotest.(check (list bool)) "second pass" expected (probes warm)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:200 ~name:"sha256 hex roundtrip"
      (string_of_size Gen.(0 -- 300))
      (fun s ->
        let d = Sha256.string s in
        Sha256.equal d (Sha256.of_hex (Sha256.to_hex d)));
    Test.make ~count:200 ~name:"sha256 injective on samples"
      (pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(0 -- 64)))
      (fun (a, b) ->
        String.equal a b || not (Sha256.equal (Sha256.string a) (Sha256.string b)));
    Test.make ~count:100 ~name:"signature verifies for any message"
      (string_of_size Gen.(0 -- 200))
      (fun msg ->
        let kc = Keychain.create ~n:7 () in
        Threshold.verify_partial kc msg (Threshold.sign kc ~signer:5 msg));
    Test.make ~count:100 ~name:"threshold combine-verify for any quorum"
      (pair (string_of_size Gen.(1 -- 100)) (int_range 0 120))
      (fun (msg, salt) ->
        let n = 7 in
        let kc = Keychain.create ~seed:(string_of_int salt) ~n () in
        let partials =
          List.init 5 (fun i -> Threshold.sign kc ~signer:i msg)
        in
        match Threshold.combine kc ~threshold:5 msg partials with
        | Error _ -> false
        | Ok t -> Threshold.verify kc ~threshold:5 msg t);
    Test.make ~count:100 ~name:"warm keychain answers as a fresh one"
      (triple (string_of_size Gen.(1 -- 100)) (string_of_size Gen.(1 -- 100))
         (int_range 0 6))
      memo_transparent;
  ]

let suite =
  [
    ("sha256 NIST vectors", `Quick, test_sha256_vectors);
    ("sha256 incremental chunking", `Quick, test_sha256_incremental);
    ("sha256 raw/hex roundtrips", `Quick, test_sha256_raw_hex_roundtrip);
    ("hmac RFC 4231 vectors", `Quick, test_hmac_vectors);
    ("signature sign/verify", `Quick, test_signature);
    ("keychain determinism", `Quick, test_keychain_determinism);
    ("threshold combine & verify", `Quick, test_threshold_combine);
    ("threshold insufficient shares", `Quick, test_threshold_insufficient);
    ("threshold aggregate of checked shares", `Quick, test_threshold_aggregate);
    ("threshold forgery resistance", `Quick, test_threshold_forgery_resistance);
    ("cost model sanity", `Quick, test_cost_model);
    ("sha256 padding boundaries", `Quick, test_sha256_padding_boundaries);
    ("sha256 copy and resume", `Quick, test_sha256_copy_resume);
    ("threshold verify signer lists", `Quick, test_threshold_verify_signers);
    ("tag formats pinned", `Quick, test_tag_golden);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
  @ [
      ("mac memo equals a fresh mac, cold and warm", `Quick, test_mac_memo_exact);
      ("mac memo past its capacity", `Quick, test_mac_memo_bounded);
      ("mac memo is per keychain", `Quick, test_mac_memo_per_keychain);
      ( "certificate memo vouches for exact inputs only",
        `Quick,
        test_cert_memo_contract );
      ("certificate memo past its capacity", `Quick, test_cert_memo_bounded);
    ]

let () = Alcotest.run "crypto" [ ("crypto", suite) ]
