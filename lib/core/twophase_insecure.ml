open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module C = Consensus_intf

let name = "twophase-insecure"

type t = {
  rep : Replica.t;
  mutable lb : Block.t;
  mutable locked_qc : Qc.t;
  mutable high : Qc.t;
  mutable in_flight : Sha256.t option;
  mutable collecting_vc : bool;
  vc_msgs : Qc.t Replica.view_msgs;
  voted_commit : (string, unit) Hashtbl.t;
  mutable rejected : int;
}

let create cfg =
  {
    rep = Replica.create cfg;
    lb = Block.genesis;
    locked_qc = Qc.genesis;
    high = Qc.genesis;
    in_flight = None;
    collecting_vc = false;
    vc_msgs = Replica.view_msgs ();
    voted_commit = Hashtbl.create 8;
    rejected = 0;
  }

let locked_qc t = t.locked_qc
let high_qc t = High_qc.Single t.high
let rejected_proposals t = t.rejected

let try_propose t =
  let r = t.rep in
  if (not (Replica.is_leader r)) || Option.is_some t.in_flight || t.collecting_vc then []
  else begin
    let payload = r.cfg.C.get_batch () in
    if Batch.is_empty payload then []
    else begin
      let qc = t.high in
      let b =
        Block.make_child_of_ref ~parent:qc.Qc.block ~view:r.cview ~payload
          ~justify:(Block.J_qc qc)
      in
      t.in_flight <- Some (Block.digest b);
      ignore (Replica.note_block r b);
      let justify = High_qc.Single qc in
      [ C.Broadcast (Replica.msg r (Message.Propose { block = b; justify })) ]
    end
  end

(* The broken acceptance rule: a replica locked above the proposal's
   justify refuses, and nothing can ever unlock it. *)
let accept_propose t (block : Block.t) (justify : High_qc.t) =
  match justify with
  | High_qc.Paired _ -> []
  | High_qc.Single qc ->
      if
        Block.directly_extends ~child:block ~parent:qc.Qc.block
        && Rank.block_gt (Block.summary block) (Block.summary t.lb)
        && Block.justify_equal block.Block.justify (Block.J_qc qc)
        && Auth.verify_qc t.rep.auth qc
      then
        if Rank.qc_geq qc t.locked_qc then begin
          let adds = Replica.note_block t.rep block in
          t.lb <- block;
          if Rank.qc_gt qc t.high then t.high <- qc;
          if Rank.qc_gt qc t.locked_qc then t.locked_qc <- qc;
          adds @ Replica.vote_to_leader t.rep ~kind:Qc.Prepare (Block.to_ref block)
        end
        else begin
          t.rejected <- t.rejected + 1;
          []
        end
      else []

let accept_prepare_cert t (qc : Qc.t) =
  let r = t.rep in
  if not (Auth.verify_qc r.auth qc) then []
  else begin
    if Rank.qc_gt qc t.locked_qc then t.locked_qc <- qc;
    if Rank.qc_gt qc t.high then t.high <- qc;
    if
      qc.Qc.view = r.cview
      && Replica.first_vote t.voted_commit (Sha256.to_raw qc.Qc.block.Qc.digest)
    then Replica.vote_to_leader r ~kind:Qc.Commit qc.Qc.block
    else []
  end

let on_vote t kind (block : Qc.block_ref) partial =
  let r = t.rep in
  if not (Replica.is_leader r) then []
  else
    match Vote_collector.add r.votes ~phase:kind ~view:r.cview ~block partial with
    | Vote_collector.Quorum qc -> (
        match kind with
        | Qc.Prepare ->
            if Rank.qc_gt qc t.high then t.high <- qc;
            if Rank.qc_gt qc t.locked_qc then t.locked_qc <- qc;
            [ C.Broadcast (Replica.msg r (Message.Phase_cert qc)) ]
        | Qc.Commit ->
            if (match t.in_flight with
               | Some d -> Sha256.equal d block.Qc.digest
               | None -> false)
            then t.in_flight <- None;
            C.Broadcast (Replica.msg r (Message.Phase_cert qc)) :: try_propose t
        | Qc.Pre_prepare | Qc.Precommit -> [])
    | Vote_collector.Counted _ | Vote_collector.Rejected _ -> []

(* Naive view change: take the highest QC in the first quorum and extend
   it. The unsafe snapshots of Figure 2b are exactly the ones where this
   misses somebody's lock. *)
let maybe_finish_vc t =
  if Replica.is_leader t.rep && t.collecting_vc then
    match Replica.view_quorum t.rep t.vc_msgs with
    | Some qcs ->
        t.high <- List.fold_left Rank.max_qc t.high qcs;
        t.collecting_vc <- false;
        try_propose t
    | None -> []
  else []

let rec on_new_view_msg t (m : Message.t) qc =
  if not (Auth.verify_qc t.rep.auth qc) then []
  else
    match Replica.store_view_msg t.rep t.vc_msgs m qc with
    | Replica.Duplicate -> []
    | Replica.Join -> enter_view t m.Message.view ~send:true
    | Replica.Stored -> maybe_finish_vc t

and enter_view t view ~send =
  let r = t.rep in
  Replica.enter r t.vc_msgs view;
  t.in_flight <- None;
  t.collecting_vc <- Replica.is_leader r;
  Hashtbl.reset t.voted_commit;
  let timer = Replica.view_timer r ~send in
  let nv =
    if send then begin
      let m = Replica.msg r (Message.New_view { justify = t.high }) in
      if Replica.is_leader r then on_new_view_msg t m t.high
      else [ C.Send { dst = Replica.leader_of r view; msg = m } ]
    end
    else begin
      t.collecting_vc <- false;
      []
    end
  in
  timer :: nv

let step t (m : Message.t) =
  let r = t.rep in
  match m.Message.payload with
  | Message.New_view { justify } ->
      if Replica.to_leader r m then on_new_view_msg t m justify else []
  | Message.Propose { block; justify } ->
      if Replica.from_leader r m then accept_propose t block justify else []
  | Message.Vote { kind; block; partial; locked = _ } ->
      if m.Message.view = r.cview then on_vote t kind block partial else []
  | Message.Phase_cert qc -> (
      match qc.Qc.phase with
      | Qc.Prepare -> accept_prepare_cert t qc
      | Qc.Commit ->
          if Auth.verify_qc r.auth qc then Replica.deliver_commit r qc else []
      | Qc.Pre_prepare | Qc.Precommit -> [])
  | Message.Fetch { digest } ->
      Committer.handle_fetch r.com ~sender:m.Message.sender ~view:r.cview digest
  | Message.Fetch_resp { block } -> Replica.note_block r block
  | Message.View_change _ | Message.Pre_prepare _ | Message.New_view_proof _
  | Message.Client_op _ | Message.Client_reply _ ->
      []

include Replica.Drive (struct
  type nonrec t = t
  let replica t = t.rep
  let verify_justify = Some Replica.verify_single
  let step = step
  let try_propose = try_propose
  let enter_view = enter_view
end)
