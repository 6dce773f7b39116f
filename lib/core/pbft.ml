(* lint: allow-file linearity -- PBFT is the intentionally quadratic
   baseline: NEW-VIEW-PROOF ships a quorum of QCs to all n replicas
   (O(n^2) authenticators), exactly the view-change cost Marlin avoids. *)
open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module C = Consensus_intf
module Obs = Marlin_obs.Sink

let name = "pbft"

(* How many slots may be in flight at once (PBFT's high/low watermarks). *)
let window = 4

type t = {
  rep : Replica.t;  (* its [votes] collect prepare votes, keyed per slot *)
  commit_votes : Vote_collector.t;
  mutable prepared : Qc.t;  (* highest prepared certificate *)
  mutable proposed_tip : Qc.block_ref;  (* leader: last slot proposed *)
  mutable anchor : Qc.block_ref option;
      (* the block this view's chain must build on: block(justify) of the
         accepted NEW-VIEW (genesis in view 0); None until the NEW-VIEW
         arrives — proposals are not accepted without it *)
  accepted : string Pair_tbl.t;
      (* (view, height) -> digest: at most one pre-prepare per slot *)
  mutable collecting_vc : bool;
  vc_msgs : Qc.t Replica.view_msgs;  (* prepared qc per sender *)
  stash : (string, Block.t list) Hashtbl.t;
      (* pre-prepares that arrived before their parent (pipelining +
         network jitter reorder bursts), keyed by the missing parent *)
}

let create cfg =
  let rep = Replica.create cfg in
  {
    rep;
    commit_votes = Vote_collector.create rep.auth;
    prepared = Qc.genesis;
    proposed_tip = Qc.genesis_ref;
    anchor = Some Qc.genesis_ref;
    accepted = Pair_tbl.create ~dummy:"" 8;
    collecting_vc = false;
    vc_msgs = Replica.view_msgs ();
    stash = Hashtbl.create 8;
  }

let locked_qc t = t.prepared
let high_qc t = High_qc.Single t.prepared
let prepared_qc t = t.prepared

(* ---------- normal case ---------- *)

(* PBFT pipelines: the leader keeps up to [window] slots in flight,
   proposing the next block as soon as it has operations for it. *)
let rec try_propose t =
  let r = t.rep in
  if (not (Replica.is_leader r)) || t.collecting_vc then []
  else if
    t.proposed_tip.Qc.height - (Block_store.last_committed r.store).Block.height
    >= window
  then []
  else begin
    let payload = r.cfg.C.get_batch () in
    if Batch.is_empty payload then []
    else begin
      let b =
        Block.make_child_of_ref ~parent:t.proposed_tip ~view:r.cview ~payload
          ~justify:(Block.J_qc t.prepared)
      in
      t.proposed_tip <- Block.to_ref b;
      ignore (Replica.note_block r b);
      Replica.propose r b ~justify:(High_qc.Single t.prepared) :: try_propose t
    end
  end

(* Replica accepts a pre-prepare: at most one per (view, slot), and the
   view's chain must be rooted at the NEW-VIEW anchor — either the block
   links directly to the anchor, or its parent is the slot accepted just
   below it. A proposal whose parent has not arrived yet (pipelining plus
   network jitter reorder bursts) is stashed and replayed once it does. *)
let rec accept_pre_prepare t (block : Block.t) =
  let view = t.rep.cview in
  let height = block.Block.height in
  if Pair_tbl.mem t.accepted view height then []
  else if block.Block.view <> view then []
  else begin
    match (block.Block.pl, t.anchor) with
    | (Block.Root | Block.Nil), _ | _, None -> []
    | Block.Hash parent_digest, Some anchor ->
        let links_to_anchor =
          block.Block.height = anchor.Qc.height + 1
          && Sha256.equal parent_digest anchor.Qc.digest
        in
        let links_to_previous_slot =
          match Pair_tbl.find t.accepted view (height - 1) with
          | d -> String.equal d (Sha256.to_raw parent_digest)
          | exception Not_found -> false
        in
        if links_to_anchor || links_to_previous_slot then begin
          Pair_tbl.replace t.accepted view height
            (Sha256.to_raw (Block.digest block));
          let adds = Replica.note_block t.rep block in
          let b_ref = Block.to_ref block in
          let vote = C.Broadcast (Replica.vote t.rep ~kind:Qc.Prepare b_ref) in
          let key = Sha256.to_raw (Block.digest block) in
          let stashed = Option.value ~default:[] (Hashtbl.find_opt t.stash key) in
          Hashtbl.remove t.stash key;
          adds @ (vote :: List.concat_map (accept_pre_prepare t) stashed)
        end
        else if block.Block.height > anchor.Qc.height + 1 then begin
          (* plausibly a reordered burst: wait for the parent *)
          let key = Sha256.to_raw parent_digest in
          Hashtbl.replace t.stash key
            (block :: Option.value ~default:[] (Hashtbl.find_opt t.stash key));
          []
        end
        else []
  end

(* Every replica collects the all-to-all votes itself. *)
let on_prepare_vote t (block : Qc.block_ref) partial =
  let r = t.rep in
  match Replica.add_vote r r.votes ~phase:Qc.Prepare ~block partial with
  | Vote_collector.Quorum qc ->
      (* prepared: remember the certificate, vote to commit *)
      if Rank.qc_gt qc t.prepared then t.prepared <- qc;
      if Replica.first_vote r Qc.Commit block.Qc.digest then
        [ C.Broadcast (Replica.vote r ~kind:Qc.Commit block) ]
      else []
  | Vote_collector.Counted _ | Vote_collector.Rejected _ -> []

let on_commit_vote t (block : Qc.block_ref) partial =
  let r = t.rep in
  match Replica.add_vote r t.commit_votes ~phase:Qc.Commit ~block partial with
  | Vote_collector.Quorum qc ->
      let commits = Replica.deliver_commit r qc in
      commits @ try_propose t
  | Vote_collector.Counted _ | Vote_collector.Rejected _ -> []

(* ---------- view change (broadcast, quadratic) ---------- *)

let maybe_finish_vc t =
  let r = t.rep in
  if Replica.is_leader r && t.collecting_vc then
    match Replica.view_quorum r t.vc_msgs with
    | Some proof ->
        let high = List.fold_left Rank.max_qc t.prepared proof in
        t.prepared <- high;
        t.collecting_vc <- false;
        Obs.view_change_exit r.cfg.C.obs ~view:r.cview;
        (* the new view's chain is anchored on the chosen certificate *)
        t.anchor <- Some high.Qc.block;
        t.proposed_tip <- high.Qc.block;
        (* re-run the commit round for the in-flight backlog (PBFT's
           NEW-VIEW re-issues the protocol for in-window slots): everyone
           prepared at least block(high), so fresh commit votes for it
           commit the whole branch and reopen the window *)
        let recommit =
          if Qc.is_genesis high then []
          else [ C.Broadcast (Replica.vote r ~kind:Qc.Commit high.Qc.block) ]
        in
        (C.Broadcast (Replica.msg r (Message.New_view_proof { justify = high; proof }))
        :: recommit)
        @ try_propose t
    | None -> []
  else []

(* VIEW-CHANGE is broadcast, so every replica counts toward joining a
   later view, not only its leader. *)
let rec on_view_change_msg t (m : Message.t) qc =
  if not (Auth.verify_qc t.rep.auth qc) then []
  else
    match Replica.store_view_msg t.rep t.vc_msgs m qc with
    | Replica.Duplicate -> []
    | Replica.Join -> enter_view t m.Message.view ~send:true
    | Replica.Stored -> maybe_finish_vc t

and enter_view t view ~send =
  let r = t.rep in
  let timer = Replica.enter r t.vc_msgs view ~send in
  t.collecting_vc <- Replica.is_leader r;
  t.proposed_tip <- Block.to_ref (Block_store.last_committed r.store);
  (* proposals are rejected until this view's NEW-VIEW sets the anchor *)
  t.anchor <- None;
  Pair_tbl.reset t.accepted;
  Hashtbl.reset t.stash;
  Vote_collector.gc_below_view t.commit_votes view;
  let vc =
    if send then begin
      (* PBFT broadcasts view-change messages to everyone *)
      let m = Replica.msg r (Message.New_view { justify = t.prepared }) in
      C.Broadcast m :: on_view_change_msg t m t.prepared
    end
    else begin
      t.collecting_vc <- false;
      []
    end
  in
  timer :: vc

let accept_new_view_proof t (m : Message.t) (justify : Qc.t) proof =
  let r = t.rep in
  if m.Message.view < r.cview then []
  else if m.Message.sender <> Replica.leader_of r m.Message.view then []
  else if m.Message.sender = Replica.me r then
    (* our own proof: [maybe_finish_vc] already exited the view change,
       set the anchor and voted; only the view timer is left to re-arm *)
    [ C.timer (Pacemaker.current_timeout r.pacemaker) ]
  else if List.length proof < C.quorum r.cfg then []
  else if not (List.for_all (Auth.verify_qc r.auth) (justify :: proof)) then []
  else if not (List.for_all (fun qc -> Rank.qc_geq justify qc) proof) then []
  else if not (Rank.qc_geq justify t.prepared) then
    (* the leader's choice misses something we prepared — refuse *)
    []
  else begin
    if m.Message.view > r.cview then ignore (enter_view t m.Message.view ~send:false);
    t.collecting_vc <- false;
    Obs.view_change_exit r.cfg.C.obs ~view:r.cview;
    if Rank.qc_gt justify t.prepared then t.prepared <- justify;
    t.anchor <- Some justify.Qc.block;
    (* Join the new view's commit round for the in-flight backlog — even
       if we already committed past it: stragglers that missed the old
       view's traffic need a fresh quorum to pull them forward. *)
    let recommit =
      if Qc.is_genesis justify then []
      else [ C.Broadcast (Replica.vote r ~kind:Qc.Commit justify.Qc.block) ]
    in
    C.timer (Pacemaker.current_timeout r.pacemaker) :: recommit
  end

(* ---------- dispatch ---------- *)

let step t (m : Message.t) =
  let r = t.rep in
  match m.Message.payload with
  | Message.Propose { block; justify = _ } ->
      if Replica.from_leader r m then accept_pre_prepare t block else []
  | Message.Vote { kind; block; partial; locked = _ } ->
      if m.Message.view <> r.cview then []
      else begin
        match kind with
        | Qc.Prepare -> on_prepare_vote t block partial
        | Qc.Commit -> on_commit_vote t block partial
        | Qc.Pre_prepare | Qc.Precommit -> []
      end
  | Message.New_view { justify } ->
      if m.Message.view >= r.cview then on_view_change_msg t m justify else []
  | Message.New_view_proof { justify; proof } ->
      accept_new_view_proof t m justify proof
  | Message.Phase_cert qc ->
      if Qc.phase_equal qc.Qc.phase Qc.Commit && Auth.verify_qc r.auth qc then
        Replica.deliver_commit r qc
      else []
  | Message.Fetch { digest } ->
      Committer.handle_fetch r.com ~sender:m.Message.sender ~view:r.cview digest
  | Message.Fetch_resp { block } -> Replica.note_block r block
  | Message.View_change _ | Message.Pre_prepare _ | Message.Client_op _
  | Message.Client_reply _ ->
      []

include Replica.Drive (struct
  type nonrec t = t
  let replica t = t.rep
  let verify_justify = None
  let step = step
  let try_propose = try_propose
  let enter_view = enter_view
end)
