open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module C = Consensus_intf
module Obs = Marlin_obs.Sink

(* Chained HotStuff has one generic voting round per block; a block locks
   on a two-chain and commits on a three-chain of same-view, direct-parent
   prepareQCs. *)
module Make (Mode : C.MODE) : C.PROTOCOL = struct
  let name = Mode.name
type t = {
  rep : Replica.t;
  mutable prepare_qc : Qc.t;  (* highest prepareQC (highQC) *)
  mutable locked_qc : Qc.t;  (* precommitQC of the locked block *)
  mutable last_voted : int * int;  (* (view, height) of the last PREPARE vote *)
  mutable in_flight : Sha256.t option;
  mutable collecting_new_view : bool;
  new_views : Qc.t Replica.view_msgs;
}

let create cfg =
  {
    rep = Replica.create cfg;
    prepare_qc = Qc.genesis;
    locked_qc = Qc.genesis;
    last_voted = (0, 0);
    in_flight = None;
    collecting_new_view = false;
    new_views = Replica.view_msgs ();
  }

let locked_qc t = t.locked_qc
let high_qc t = High_qc.Single t.prepare_qc

(* Chained rules, driven by each newly learned prepareQC qc2 (for b2):
   - two-chain lock: if b2's justify certifies its direct parent b1, lock
     on that QC (the basic protocol's precommitQC);
   - three-chain commit: if additionally b1's justify certifies *its*
     direct parent b0 and all three QCs are from one view, commit b0. *)
let process_chain_qc t (qc2 : Qc.t) =
  if not (Mode.chained && Qc.phase_equal qc2.Qc.phase Qc.Prepare) then []
  else
    match Block_store.find t.rep.store qc2.Qc.block.Qc.digest with
    | None -> []
    | Some b2 -> (
        match b2.Block.justify with
        | Block.J_qc qc1
          when Qc.phase_equal qc1.Qc.phase Qc.Prepare
               && Block.directly_extends ~child:b2 ~parent:qc1.Qc.block -> (
            if Rank.qc_gt qc1 t.locked_qc then t.locked_qc <- qc1;
            match Block_store.find t.rep.store qc1.Qc.block.Qc.digest with
            | None -> []
            | Some b1 -> (
                match b1.Block.justify with
                | Block.J_qc qc0
                  when Qc.phase_equal qc0.Qc.phase Qc.Prepare
                       && Block.directly_extends ~child:b1 ~parent:qc0.Qc.block
                       && qc0.Qc.view = qc1.Qc.view
                       && qc1.Qc.view = qc2.Qc.view ->
                    Replica.deliver_commit t.rep qc0
                | Block.J_qc _ | Block.J_paired _ | Block.J_genesis -> []))
        | Block.J_qc _ | Block.J_paired _ | Block.J_genesis -> [])

(* ---------- leader ---------- *)

let try_propose t =
  let r = t.rep in
  if (not (Replica.is_leader r)) || Option.is_some t.in_flight || t.collecting_new_view
  then []
  else begin
    let qc = t.prepare_qc in
    let payload = r.cfg.C.get_batch () in
    if
      Batch.is_empty payload
      && not (Replica.needs_flush r ~chained:Mode.chained qc.Qc.block)
    then []
    else begin
      let b =
        Block.make_child_of_ref ~parent:qc.Qc.block ~view:r.cview ~payload
          ~justify:(Block.J_qc qc)
      in
      t.in_flight <- Some (Block.digest b);
      ignore (Replica.note_block r b);
      [ Replica.propose r b ~justify:(High_qc.Single qc) ]
    end
  end

let on_vote t kind (block : Qc.block_ref) partial =
  let r = t.rep in
  if not (Replica.is_leader r) then []
  else
    match Replica.add_vote r r.votes ~phase:kind ~block partial with
    | Vote_collector.Quorum qc -> (
        match kind with
        | Qc.Prepare ->
            if Rank.qc_gt qc t.prepare_qc then t.prepare_qc <- qc;
            if Mode.chained then begin
              t.in_flight <- None;
              let commits = process_chain_qc t qc in
              match try_propose t with
              | [] -> commits @ [ C.Broadcast (Replica.msg r (Message.Phase_cert qc)) ]
              | next -> commits @ next
            end
            else [ C.Broadcast (Replica.msg r (Message.Phase_cert qc)) ]
        | Qc.Precommit ->
            if Rank.qc_gt qc t.locked_qc then t.locked_qc <- qc;
            [ C.Broadcast (Replica.msg r (Message.Phase_cert qc)) ]
        | Qc.Commit ->
            if (match t.in_flight with
               | Some d -> Sha256.equal d block.Qc.digest
               | None -> false)
            then t.in_flight <- None;
            C.Broadcast (Replica.msg r (Message.Phase_cert qc)) :: try_propose t
        | Qc.Pre_prepare -> [])
    | Vote_collector.Counted _ | Vote_collector.Rejected _ -> []

let maybe_finish_new_view t =
  if Replica.is_leader t.rep && t.collecting_new_view then
    match Replica.view_quorum t.rep t.new_views with
    | Some qcs ->
        t.prepare_qc <- List.fold_left Rank.max_qc t.prepare_qc qcs;
        t.collecting_new_view <- false;
        Obs.view_change_exit t.rep.cfg.C.obs ~view:t.rep.cview;
        try_propose t
    | None -> []
  else []

let rec on_new_view_msg t (m : Message.t) (qc : Qc.t) =
  if not (Auth.verify_qc t.rep.auth qc) then []
  else
    match Replica.store_view_msg t.rep t.new_views m qc with
    | Replica.Duplicate -> []
    | Replica.Join -> enter_view t m.Message.view ~send:true
    | Replica.Stored -> maybe_finish_new_view t

and enter_view t view ~send =
  let r = t.rep in
  let timer = Replica.enter r t.new_views view ~send in
  t.in_flight <- None;
  t.collecting_new_view <- Replica.is_leader r;
  let nv_actions =
    if send then begin
      let m = Replica.msg r (Message.New_view { justify = t.prepare_qc }) in
      if Replica.is_leader r then on_new_view_msg t m t.prepare_qc
      else [ C.Send { dst = Replica.leader_of r view; msg = m } ]
    end
    else begin
      t.collecting_new_view <- false;
      []
    end
  in
  timer :: nv_actions

(* ---------- replica ---------- *)

(* HotStuff's safeNode predicate, adapted to multi-block views: accept a
   proposal if it extends the locked block (safety) or its justify is a QC
   from a later view than the lock (liveness). *)
let safe_node t (block : Block.t) (qc : Qc.t) =
  let locked = t.locked_qc.Qc.block in
  let extends_locked =
    Qc.is_genesis t.locked_qc
    || Sha256.equal qc.Qc.block.Qc.digest locked.Qc.digest
    ||
    match Block_store.find t.rep.store qc.Qc.block.Qc.digest with
    | Some parent ->
        Block_store.extends t.rep.store ~descendant:parent ~ancestor:locked.Qc.digest
    | None -> false
  in
  let unlocked_by_view = qc.Qc.view > t.locked_qc.Qc.view in
  (* Within one view the certified chain is linear (replicas vote at most
     once per height and QCs justify direct parents), so a same-view QC at
     or above the locked height extends the locked block even when we do
     not hold every body to walk the link. *)
  let same_view_above =
    qc.Qc.view = t.locked_qc.Qc.view
    && qc.Qc.block.Qc.height >= t.locked_qc.Qc.block.Qc.height
  in
  Block.directly_extends ~child:block ~parent:qc.Qc.block
  && (extends_locked || unlocked_by_view || same_view_above)

let accept_propose t (block : Block.t) (justify : High_qc.t) =
  match justify with
  | High_qc.Paired _ -> []
  | High_qc.Single qc ->
      let lv_view, lv_height = t.last_voted in
      let fresh =
        block.Block.view > lv_view
        || (block.Block.view = lv_view && block.Block.height > lv_height)
      in
      if
        fresh
        && Block.justify_equal block.Block.justify (Block.J_qc qc)
        && Auth.verify_qc t.rep.auth qc
        && safe_node t block qc
      then begin
        let adds = Replica.note_block t.rep block in
        if Rank.qc_gt qc t.prepare_qc then t.prepare_qc <- qc;
        t.last_voted <- (block.Block.view, block.Block.height);
        let chain_commits = process_chain_qc t qc in
        adds @ chain_commits
        @ Replica.vote_to_leader t.rep ~kind:Qc.Prepare (Block.to_ref block)
      end
      else []

let accept_phase_cert t (qc : Qc.t) =
  let r = t.rep in
  if not (Auth.verify_qc r.auth qc) then []
  else
    match qc.Qc.phase with
    | Qc.Prepare ->
        (* PRE-COMMIT message: adopt the prepareQC, vote precommit (in
           chained mode there are no further phases — just run the chain
           rules). *)
        if Rank.qc_gt qc t.prepare_qc then t.prepare_qc <- qc;
        if Mode.chained then process_chain_qc t qc
        else if
          qc.Qc.view = r.cview
          && Replica.first_vote r Qc.Precommit qc.Qc.block.Qc.digest
        then Replica.vote_to_leader r ~kind:Qc.Precommit qc.Qc.block
        else []
    | Qc.Precommit ->
        (* COMMIT message: lock, vote commit. *)
        if Rank.qc_gt qc t.locked_qc then t.locked_qc <- qc;
        if
          qc.Qc.view = r.cview
          && Replica.first_vote r Qc.Commit qc.Qc.block.Qc.digest
        then Replica.vote_to_leader r ~kind:Qc.Commit qc.Qc.block
        else []
    | Qc.Commit -> Replica.deliver_commit r qc
    | Qc.Pre_prepare -> []

(* ---------- dispatch ---------- *)

let step t (m : Message.t) =
  let r = t.rep in
  match m.Message.payload with
  | Message.Client_op _ | Message.Client_reply _ | Message.View_change _
  | Message.Pre_prepare _ | Message.New_view_proof _ ->
      []
  | Message.New_view { justify } ->
      if Replica.to_leader r m then on_new_view_msg t m justify else []
  | Message.Propose { block; justify } ->
      if Replica.from_leader r m then accept_propose t block justify else []
  | Message.Vote { kind; block; partial; locked = _ } ->
      if m.Message.view = r.cview then on_vote t kind block partial else []
  | Message.Phase_cert qc ->
      (* Commit certificates apply at any view; phase votes are gated on
         the current view inside. *)
      accept_phase_cert t qc
  | Message.Fetch { digest } ->
      Committer.handle_fetch r.com ~sender:m.Message.sender ~view:r.cview digest
  | Message.Fetch_resp { block } -> Replica.note_block r block

include Replica.Drive (struct
  type nonrec t = t
  let replica t = t.rep
  let verify_justify = Some Replica.verify_single
  let step = step
  let try_propose = try_propose
  let enter_view = enter_view
end)
end
