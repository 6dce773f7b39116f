(* Unit tests for the protocol-independent consensus machinery: the CPU
   meter, the metered Auth wrapper, the vote collector, the pacemaker, the
   committer (commit ordering, fetch, held certificates), and the entry
   points every registered protocol shares. *)

open Marlin_types
module Core = Marlin_core
module C = Core.Consensus_intf
module Keychain = Marlin_crypto.Keychain
module Cost_model = Marlin_crypto.Cost_model
module Sha256 = Marlin_crypto.Sha256

let kc = Keychain.create ~n:4 ()

let cfg id = C.Config.make ~id ~n:4 ~f:1 ~keychain:kc ~max_timeout:8.0 ()

let auth ?(id = 0) () =
  Core.Auth.create ~keychain:kc ~meter:(Core.Cpu_meter.create Cost_model.ecdsa_group)
    ~quorum:3
  |> fun a ->
  ignore id;
  a

let block_ref ?(height = 1) ?(view = 1) () =
  {
    Qc.digest = Sha256.string (Printf.sprintf "blk-%d-%d" view height);
    block_view = view;
    height;
    pview = 0;
    is_virtual = false;
  }

let make_qc ?(phase = Qc.Prepare) ?(view = 1) block =
  let partials =
    List.init 3 (fun i -> Qc.sign_vote kc ~signer:i ~phase ~view block)
  in
  match Qc.combine kc ~threshold:3 ~phase ~view block partials with
  | Ok qc -> qc
  | Error e -> Alcotest.failf "combine: %s" e

(* ---------- cpu meter ---------- *)

let test_cpu_meter () =
  let m = Core.Cpu_meter.create Cost_model.ecdsa_group in
  Alcotest.(check (float 1e-12)) "empty take" 0. (Core.Cpu_meter.take m);
  Core.Cpu_meter.charge_partial_sign m;
  Core.Cpu_meter.charge_partial_verify m;
  Alcotest.(check (float 1e-12)) "sign+verify"
    (Cost_model.partial_sign_cost Cost_model.ecdsa_group
    +. Cost_model.partial_verify_cost Cost_model.ecdsa_group)
    (Core.Cpu_meter.take m);
  Alcotest.(check (float 1e-12)) "take resets" 0. (Core.Cpu_meter.take m);
  Alcotest.(check int) "op count" 2 (Core.Cpu_meter.op_count m)

(* ---------- auth ---------- *)

let test_auth_verify_cache () =
  let a = auth () in
  let qc = make_qc (block_ref ()) in
  let meter = Core.Auth.meter a in
  let ops0 = Core.Cpu_meter.op_count meter in
  Alcotest.(check bool) "verifies" true (Core.Auth.verify_qc a qc);
  let ops1 = Core.Cpu_meter.op_count meter in
  Alcotest.(check bool) "first verify charged" true (ops1 > ops0);
  Alcotest.(check bool) "verifies again" true (Core.Auth.verify_qc a qc);
  Alcotest.(check int) "cached verify is free" ops1 (Core.Cpu_meter.op_count meter);
  Alcotest.(check bool) "genesis free" true (Core.Auth.verify_qc a Qc.genesis)

(* A checked QC's tag spliced onto another block and view is no
   certificate: the verified-QC cache must not vouch for it. *)
let test_auth_cache_rejects_spliced_tag () =
  let a = auth () in
  let qc = make_qc (block_ref ()) in
  let forged = { qc with Qc.block = block_ref ~height:2 ~view:7 (); view = 7 } in
  Alcotest.(check bool) "genuine verifies" true (Core.Auth.verify_qc a qc);
  Alcotest.(check bool) "fresh replica rejects the copy" false
    (Core.Auth.verify_qc (auth ()) forged);
  Alcotest.(check bool) "Qc.verify rejects the copy" false
    (Qc.verify kc ~threshold:3 forged);
  Alcotest.(check bool) "replica that checked the genuine one rejects the copy"
    false (Core.Auth.verify_qc a forged);
  Alcotest.(check bool) "genuine still verifies" true (Core.Auth.verify_qc a qc)

(* Two replicas over one keychain: the first one's check of a QC puts it
   in the keychain's certificate memo and the second one's is a memo hit,
   yet each replica's meter is charged exactly one combined verify for
   it, a repeat on either is free, and a forged copy under the held tag
   is charged and rejected every time. *)
let test_auth_charges_per_replica () =
  let qc = make_qc (block_ref ()) in
  let one_verify = Cost_model.combined_verify_cost Cost_model.ecdsa_group ~shares:3 in
  let check_charge what a ~expect_ok ~ops ~charged q =
    let meter = Core.Auth.meter a in
    let ops0 = Core.Cpu_meter.op_count meter in
    Alcotest.(check bool) (what ^ ": verdict") expect_ok (Core.Auth.verify_qc a q);
    Alcotest.(check int) (what ^ ": ops charged") ops
      (Core.Cpu_meter.op_count meter - ops0);
    Alcotest.(check (float 1e-12)) (what ^ ": time charged") charged
      (Core.Cpu_meter.take meter)
  in
  let a = auth () and b = auth () in
  check_charge "first replica" a ~expect_ok:true ~ops:1 ~charged:one_verify qc;
  check_charge "second replica" b ~expect_ok:true ~ops:1 ~charged:one_verify qc;
  check_charge "first replica again" a ~expect_ok:true ~ops:0 ~charged:0. qc;
  check_charge "second replica again" b ~expect_ok:true ~ops:0 ~charged:0. qc;
  let forged = { qc with Qc.view = 2 } in
  check_charge "forged copy" b ~expect_ok:false ~ops:1 ~charged:one_verify forged;
  check_charge "forged copy again" b ~expect_ok:false ~ops:1 ~charged:one_verify forged

(* ---------- vote collector ---------- *)

let test_vote_collector_quorum () =
  let a = auth () in
  let vc = Core.Vote_collector.create a in
  let b = block_ref () in
  let vote i = Qc.sign_vote kc ~signer:i ~phase:Qc.Prepare ~view:1 b in
  (match Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:b (vote 0) with
  | Core.Vote_collector.Counted 1 -> ()
  | _ -> Alcotest.fail "expected Counted 1");
  (match Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:b (vote 0) with
  | Core.Vote_collector.Rejected _ -> ()
  | _ -> Alcotest.fail "duplicate must be rejected");
  ignore (Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:b (vote 1));
  (match Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:b (vote 2) with
  | Core.Vote_collector.Quorum qc ->
      Alcotest.(check bool) "qc verifies" true (Core.Auth.verify_qc a qc);
      Alcotest.(check int) "qc view" 1 qc.Qc.view
  | _ -> Alcotest.fail "expected quorum");
  match Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:b (vote 3) with
  | Core.Vote_collector.Rejected _ -> ()
  | _ -> Alcotest.fail "post-quorum votes rejected"

let test_vote_collector_invalid_and_gc () =
  let a = auth () in
  let vc = Core.Vote_collector.create a in
  let b = block_ref () in
  (* a vote signed for a different block must not count *)
  let wrong = Qc.sign_vote kc ~signer:0 ~phase:Qc.Prepare ~view:1 (block_ref ~height:9 ()) in
  (match Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:b wrong with
  | Core.Vote_collector.Rejected _ -> ()
  | _ -> Alcotest.fail "invalid signature accepted");
  let vote i = Qc.sign_vote kc ~signer:i ~phase:Qc.Prepare ~view:1 b in
  ignore (Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:b (vote 0));
  Alcotest.(check int) "count" 1
    (Core.Vote_collector.count vc ~phase:Qc.Prepare ~view:1 ~digest:b.Qc.digest);
  Core.Vote_collector.gc_below_view vc 2;
  Alcotest.(check int) "gc clears old views" 0
    (Core.Vote_collector.count vc ~phase:Qc.Prepare ~view:1 ~digest:b.Qc.digest)

(* ---------- pacemaker ---------- *)

let test_pacemaker_backoff () =
  let pm = Core.Pacemaker.create ~base:1.0 ~max:8.0 in
  Alcotest.(check (float 1e-9)) "base" 1.0 (Core.Pacemaker.current_timeout pm);
  Core.Pacemaker.note_view_change pm;
  Alcotest.(check (float 1e-9)) "doubles" 2.0 (Core.Pacemaker.current_timeout pm);
  Core.Pacemaker.note_view_change pm;
  Core.Pacemaker.note_view_change pm;
  Alcotest.(check (float 1e-9)) "keeps doubling" 8.0 (Core.Pacemaker.current_timeout pm);
  Core.Pacemaker.note_view_change pm;
  Alcotest.(check (float 1e-9)) "capped" 8.0 (Core.Pacemaker.current_timeout pm);
  Alcotest.(check int) "failures counted" 4 (Core.Pacemaker.consecutive_failures pm);
  Core.Pacemaker.note_progress pm;
  Alcotest.(check (float 1e-9)) "progress resets" 1.0 (Core.Pacemaker.current_timeout pm)

(* The doubling saturates exactly at max — no float overshoot, no overflow
   to infinity, however long the outage lasts. *)
let test_pacemaker_saturation () =
  let pm = Core.Pacemaker.create ~base:1.5 ~max:8.0 in
  for _ = 1 to 3 do Core.Pacemaker.note_view_change pm done;
  (* 1.5 -> 3 -> 6 -> would be 12: clamps to exactly 8, not 12 *)
  Alcotest.(check (float 0.)) "clamps exactly at max" 8.0
    (Core.Pacemaker.current_timeout pm);
  for _ = 1 to 2000 do Core.Pacemaker.note_view_change pm done;
  Alcotest.(check (float 0.)) "still exactly max after 2000 failures" 8.0
    (Core.Pacemaker.current_timeout pm);
  Alcotest.(check bool) "finite" true
    (Float.is_finite (Core.Pacemaker.current_timeout pm));
  (* progress restarts the backoff from the base timeout *)
  Core.Pacemaker.note_progress pm;
  Alcotest.(check (float 0.)) "progress restores base" 1.5
    (Core.Pacemaker.current_timeout pm);
  Alcotest.(check int) "progress clears the failure count" 0
    (Core.Pacemaker.consecutive_failures pm)

(* ---------- committer ---------- *)

let chain_of store ~len =
  (* build a committed-qc chain genesis <- b1 <- ... <- blen *)
  let rec go parent acc k =
    if k = 0 then List.rev acc
    else begin
      let b =
        Block.make_normal ~parent ~view:1
          ~payload:(Batch.of_list [ Operation.make ~client:1 ~seq:k ~body:"" ])
          ~justify:(Block.J_qc Qc.genesis)
      in
      Block_store.add store b;
      go b (b :: acc) (k - 1)
    end
  in
  go Block.genesis [] len

let commit_qc_at ~view b = make_qc ~phase:Qc.Commit ~view (Block.to_ref b)
let commit_qc = commit_qc_at ~view:1

let test_committer_in_order () =
  let store = Block_store.create () in
  let com = Core.Committer.create (cfg 1) store in
  let chain = chain_of store ~len:3 in
  let b3 = List.nth chain 2 in
  let r = Core.Committer.deliver com ~view:1 (commit_qc b3) in
  Alcotest.(check int) "three blocks commit in order" 3
    (List.length r.Core.Committer.committed);
  Alcotest.(check bool) "oldest first" true
    (Block.equal (List.hd r.Core.Committer.committed) (List.hd chain));
  Alcotest.(check int) "count" 3 (Block_store.committed_count store);
  let again = Core.Committer.deliver com ~view:1 (commit_qc b3) in
  Alcotest.(check int) "idempotent" 0 (List.length again.Core.Committer.committed)

let test_committer_fetches_missing () =
  let store = Block_store.create () in
  let com = Core.Committer.create (cfg 1) store in
  (* build the chain in a separate store; give the committer only b2 *)
  let donor = Block_store.create () in
  let chain = chain_of donor ~len:2 in
  let b1 = List.nth chain 0 and b2 = List.nth chain 1 in
  Block_store.add store b2;
  let r = Core.Committer.deliver com ~view:1 (commit_qc b2) in
  Alcotest.(check int) "nothing committed yet" 0 (List.length r.Core.Committer.committed);
  (match r.Core.Committer.sends with
  | [ C.Send { dst; msg = { Message.payload = Message.Fetch { digest }; _ } } ] ->
      Alcotest.(check bool) "fetches the missing parent" true
        (Sha256.equal digest (Block.digest b1));
      Alcotest.(check bool) "from the view's leader" true (dst = 1 || dst < 4)
  | _ -> Alcotest.fail "expected one fetch");
  (* a second certificate re-issues the fetch (lost requests must retry) *)
  let r2 = Core.Committer.deliver com ~view:1 (commit_qc b2) in
  Alcotest.(check bool) "fetch retried" true (List.length r2.Core.Committer.sends > 0);
  (* the body arrives: the held certificate completes *)
  let r3 = Core.Committer.note_block com b1 in
  Alcotest.(check int) "both blocks commit" 2 (List.length r3.Core.Committer.committed)

let test_committer_conflict_is_fatal () =
  let store = Block_store.create () in
  let com = Core.Committer.create (cfg 1) store in
  let chain = chain_of store ~len:2 in
  ignore (Core.Committer.deliver com ~view:1 (commit_qc (List.nth chain 1)));
  (* a conflicting sibling of b1 *)
  let evil =
    Block.make_normal ~parent:Block.genesis ~view:2
      ~payload:(Batch.of_list [ Operation.make ~client:9 ~seq:9 ~body:"evil" ])
      ~justify:(Block.J_qc Qc.genesis)
  in
  Block_store.add store evil;
  Alcotest.(check bool) "conflicting certificate trips the alarm" true
    (try
       ignore (Core.Committer.deliver com ~view:2 (commit_qc evil));
       false
     with Failure msg -> String.length msg > 0)

let test_committer_handle_fetch () =
  let store = Block_store.create () in
  let com = Core.Committer.create (cfg 1) store in
  let chain = chain_of store ~len:1 in
  let b1 = List.hd chain in
  (match Core.Committer.handle_fetch com ~sender:2 ~view:1 (Block.digest b1) with
  | [ C.Send { dst = 2; msg = { Message.payload = Message.Fetch_resp { block }; _ } } ]
    ->
      Alcotest.(check bool) "returns the body" true (Block.equal block b1)
  | _ -> Alcotest.fail "expected a response");
  Alcotest.(check int) "unknown digest: silence" 0
    (List.length
       (Core.Committer.handle_fetch com ~sender:2 ~view:1 (Sha256.string "nope")))

(* ---------- entry points, for every registered protocol ---------- *)

module Trace = Marlin_obs.Trace

let test_entry_point_contract () =
  List.iter
    (fun (name, (module P : C.PROTOCOL)) ->
      let run = Marlin_obs.Run.create ~trace:true ~n:4 () in
      (* one operation, available once [on_start] has run *)
      let pending = ref false in
      let get_batch () =
        if not !pending then Batch.empty
        else begin
          pending := false;
          Batch.of_list [ Operation.make ~client:1 ~seq:1 ~body:"op" ]
        end
      in
      let replica id =
        let obs = Marlin_obs.Run.handle run ~clock:(fun () -> 0.) ~replica:id in
        P.create (C.Config.make ~id ~n:4 ~f:1 ~keychain:kc ~get_batch ~obs ())
      in
      let check_bool what = Alcotest.(check bool) (name ^ ": " ^ what) true in
      (* the view-0 leader: its proposal's local copy is delivered to
         itself, and so is its own vote *)
      let leader = replica 0 in
      check_bool "on_start arms the view timer first"
        (match P.on_start leader with C.Timer _ :: _ -> true | _ -> false);
      pending := true;
      let acts = P.on_new_payload leader in
      check_bool "self-addressed sends are consumed"
        (List.for_all (function C.Send { dst; _ } -> dst <> 0 | _ -> true) acts);
      Alcotest.(check int) (name ^ ": the proposal is broadcast once") 1
        (List.length
           (List.filter
              (function
                | C.Broadcast { Message.payload = Message.Propose _; _ } -> true
                | _ -> false)
              acts));
      (* a follower rotates, then times out *)
      let r = replica 1 in
      let entered () =
        List.filter_map
          (fun (e : Trace.event) ->
            match e.Trace.kind with
            | Trace.View_enter { cause } when e.Trace.replica = 1 ->
                Some (e.Trace.view, cause)
            | _ -> None)
          (Marlin_obs.Run.trace_events run)
      in
      ignore (P.force_view_change r);
      Alcotest.(check int) (name ^ ": rotation advances one view") 1 (P.current_view r);
      ignore (P.on_view_timeout r);
      Alcotest.(check int) (name ^ ": timeout advances one view") 2 (P.current_view r);
      Alcotest.(check (list (pair int string)))
        (name ^ ": view-enter causes") [ (1, "rotation"); (2, "timeout") ] (entered ()))
    (Marlin_runtime.Registry.all ())

(* Fetch, Fetch_resp and verified commit certificates are answered by
   [Replica.Drive], the same way for every protocol. The store is seeded
   the way a replica learns a body it missed: a commit certificate for an
   unknown block makes it fetch the body, and the response commits it. *)
let test_drive_arms () =
  List.iter
    (fun (name, (module P : C.PROTOCOL)) ->
      let p = P.create (cfg 1) in
      let from_2 payload = Message.make ~sender:2 ~view:0 payload in
      let b1 =
        Block.make_normal ~parent:Block.genesis ~view:0
          ~payload:(Batch.of_list [ Operation.make ~client:1 ~seq:1 ~body:"op" ])
          ~justify:(Block.J_qc Qc.genesis)
      in
      let fetches =
        P.on_message p (from_2 (Message.Phase_cert (commit_qc_at ~view:0 b1)))
      in
      Alcotest.(check bool) (name ^ ": an unknown certified block is fetched") true
        (List.exists
           (function
             | C.Send { msg = { Message.payload = Message.Fetch { digest }; _ }; _ } ->
                 Sha256.equal digest (Block.digest b1)
             | _ -> false)
           fetches);
      let acts = P.on_message p (from_2 (Message.Fetch_resp { block = b1 })) in
      Alcotest.(check bool) (name ^ ": a commit certificate commits the block") true
        (List.exists
           (function C.Commit [ b ] -> Block.equal b b1 | _ -> false)
           acts);
      (match P.on_message p (from_2 (Message.Fetch { digest = Block.digest b1 })) with
      | [ C.Send { dst = 2; msg = { Message.payload = Message.Fetch_resp { block }; _ } } ]
        ->
          Alcotest.(check bool) (name ^ ": the held body goes back") true
            (Block.equal block b1)
      | _ -> Alcotest.failf "%s: expected one Fetch_resp to the sender" name);
      Alcotest.(check int) (name ^ ": unknown digest gets nothing") 0
        (List.length
           (P.on_message p (from_2 (Message.Fetch { digest = Sha256.string "nope" }))));
      Alcotest.(check bool) (name ^ ": the committed head") true
        (Block.equal (P.committed_head p) b1))
    (Marlin_runtime.Registry.all ());
  (* Cluster relays stranded operations only after a callback that raised
     the view, and relies on a timeout or a forced view change always
     doing so *)
  let raises_view name (module P : C.PROTOCOL) =
    let p = P.create (cfg 1) in
    ignore (P.on_start p);
    List.iter
      (fun (what, callback) ->
        let before = P.current_view p in
        ignore (callback p);
        Alcotest.(check bool) (name ^ ": " ^ what ^ " raises the view") true
          (P.current_view p >= before + 1))
      [
        ("on_view_timeout", P.on_view_timeout);
        ("force_view_change", P.force_view_change);
        ("a second on_view_timeout", P.on_view_timeout);
      ]
  in
  let registry = Marlin_runtime.Registry.all () in
  List.iter (fun (name, proto) -> raises_view name proto) registry;
  let name, proto = List.hd registry in
  List.iter
    (fun behaviour ->
      raises_view ("byzantine " ^ name)
        (Marlin_faults.Byzantine.wrap ~plan:(fun _ -> Some behaviour) proto))
    Marlin_faults.Byzantine.[ Equivocator; Silent_leader; Vote_withholder; Stale_qc_voter ]

(* A Byzantine peer floods an honest replica with FETCH-RESPs for blocks
   it never asked for. The block store is never pruned, so storing them
   would grow it without bound; every one is dropped. *)
let test_unsolicited_fetch_resps () =
  let (module P : C.PROTOCOL) = Marlin_runtime.Registry.find_exn "chained-marlin" in
  let p = P.create (cfg 2) in
  ignore (P.on_start p);
  let acts = ref 0 in
  for k = 1 to 10_000 do
    let block =
      Block.make_normal ~parent:Block.genesis ~view:0
        ~payload:
          (Batch.of_list [ Operation.make ~client:3 ~seq:k ~body:"unsolicited" ])
        ~justify:(Block.J_qc Qc.genesis)
    in
    let m = Message.make ~sender:3 ~view:0 (Message.Fetch_resp { block }) in
    acts := !acts + List.length (P.on_message p m)
  done;
  Alcotest.(check int) "the store holds genesis only" 1
    (Block_store.size (P.block_store p));
  Alcotest.(check int) "no action answers them" 0 !acts;
  Alcotest.(check int) "the view stays" 0 (P.current_view p)

(* ---------- the replica's lock and highQC ---------- *)

let test_raise_lock_high () =
  let r = Core.Replica.create (cfg 0) in
  let check what = Alcotest.(check bool) what true in
  let high () = Core.Replica.(High_qc.primary r.high) in
  (* two distinct pre-prepareQCs of one view rank equal whatever their
     heights: the first one raised is kept *)
  let pp_low = make_qc ~phase:Qc.Pre_prepare ~view:2 (block_ref ~view:2 ~height:3 ()) in
  let pp_high = make_qc ~phase:Qc.Pre_prepare ~view:2 (block_ref ~view:2 ~height:5 ()) in
  check "the tie case ranks Eq" (Rank.qc pp_low pp_high = Rank.Eq);
  let qcs =
    [
      make_qc ~view:1 (block_ref ~view:1 ~height:2 ());
      pp_high;
      pp_low;
      make_qc ~view:1 (block_ref ~view:1 ~height:4 ());
      make_qc ~view:2 (block_ref ~view:2 ~height:4 ());
      make_qc ~view:2 (block_ref ~view:2 ~height:1 ());
      make_qc ~phase:Qc.Pre_prepare ~view:3 (block_ref ~view:3 ~height:1 ());
    ]
  in
  let seen = ref [] in
  List.iter
    (fun qc ->
      let lock_before = r.Core.Replica.locked and high_before = high () in
      Core.Replica.raise_lock r qc;
      Core.Replica.raise_high r qc;
      seen := qc :: !seen;
      check "the lock never falls" (Rank.qc_geq r.Core.Replica.locked lock_before);
      check "the highQC never falls" (Rank.qc_geq (high ()) high_before);
      check "the lock is the highest seen"
        (List.for_all (Rank.qc_geq r.Core.Replica.locked) !seen);
      check "the highQC is the highest seen" (List.for_all (Rank.qc_geq (high ())) !seen);
      if Rank.qc qc lock_before = Rank.Eq then
        check "an equal rank keeps the lock" (r.Core.Replica.locked == lock_before);
      if Rank.qc qc high_before = Rank.Eq then
        check "an equal rank keeps the highQC" (high () == high_before);
      if qc == pp_low then
        check "the tie keeps the first pre-prepareQC"
          (r.Core.Replica.locked == pp_high && high () == pp_high))
    qcs

(* ---------- the replica's vote record ---------- *)

let test_vote_record () =
  let run = Marlin_obs.Run.create ~trace:true ~n:4 () in
  let obs = Marlin_obs.Run.handle run ~clock:(fun () -> 0.) ~replica:0 in
  let r = Core.Replica.create (C.Config.make ~id:0 ~n:4 ~f:1 ~keychain:kc ~obs ()) in
  let vm = Core.Replica.view_msgs () in
  let d = (block_ref ()).Qc.digest in
  let check what = Alcotest.(check bool) what true in
  check "first commit vote recorded" (Core.Replica.first_vote r Qc.Commit d);
  check "second commit vote refused" (not (Core.Replica.first_vote r Qc.Commit d));
  check "recorded" (Core.Replica.voted r Qc.Commit d);
  check "other phases are separate" (Core.Replica.first_vote r Qc.Precommit d);
  let vc_enters () =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           match e.Trace.kind with Trace.View_change_enter -> true | _ -> false)
         (Marlin_obs.Run.trace_events run))
  in
  check "send:false arms a progress timer"
    (match Core.Replica.enter r vm 1 ~send:false with
    | C.Timer { cause = C.View_progress; _ } -> true
    | _ -> false);
  Alcotest.(check int) "send:false emits no view-change-enter" 0 (vc_enters ());
  check "enter clears the record" (not (Core.Replica.voted r Qc.Commit d));
  check "a vote is allowed again" (Core.Replica.first_vote r Qc.Commit d);
  check "send:true arms a view-change timer"
    (match Core.Replica.enter r vm 2 ~send:true with
    | C.Timer { cause = C.View_change; _ } -> true
    | _ -> false);
  Alcotest.(check int) "send:true emits one view-change-enter" 1 (vc_enters ());
  Alcotest.(check int) "enter sets the view" 2 r.Core.Replica.cview

let suite =
  [
    ("cpu meter", `Quick, test_cpu_meter);
    ("auth verify cache", `Quick, test_auth_verify_cache);
    ("vote collector quorum", `Quick, test_vote_collector_quorum);
    ("vote collector invalid & gc", `Quick, test_vote_collector_invalid_and_gc);
    ("pacemaker backoff", `Quick, test_pacemaker_backoff);
    ("pacemaker saturation + reset", `Quick, test_pacemaker_saturation);
    ("committer commits in order", `Quick, test_committer_in_order);
    ("committer fetches missing bodies", `Quick, test_committer_fetches_missing);
    ("committer conflict is fatal", `Quick, test_committer_conflict_is_fatal);
    ("committer answers fetches", `Quick, test_committer_handle_fetch);
    ("entry-point contract, every protocol", `Quick, test_entry_point_contract);
    ("replica vote record and view entry", `Quick, test_vote_record);
    ("replica lock and highQC only rise", `Quick, test_raise_lock_high);
    ("Drive answers fetches and commit certificates", `Quick, test_drive_arms);
    ("Drive drops 10,000 unsolicited fetch responses", `Quick, test_unsolicited_fetch_resps);
    ("auth cache rejects a spliced tag", `Quick, test_auth_cache_rejects_spliced_tag);
    ("auth charges each replica once", `Quick, test_auth_charges_per_replica);
  ]

let () = Alcotest.run "core-units" [ ("core-units", suite) ]
