open Marlin_types

let name = "twophase-insecure"

type t = { rep : Replica.t; mutable lb : Block.t; mutable rejected : int }

let create cfg = { rep = Replica.create cfg; lb = Block.genesis; rejected = 0 }
let rejected_proposals t = t.rejected

let try_propose t =
  if Replica.idle_leader t.rep then Replica.propose_child t.rep ~chained:false
  else []

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
        if Rank.qc_geq qc t.rep.locked then begin
          let adds = Replica.note_block t.rep block in
          t.lb <- block;
          Replica.raise_high t.rep qc;
          Replica.raise_lock t.rep qc;
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
    Replica.raise_lock r qc;
    Replica.raise_high r qc;
    if
      qc.Qc.view = r.cview
      && Replica.first_vote r Qc.Commit qc.Qc.block.Qc.digest
    then Replica.vote_to_leader r ~kind:Qc.Commit qc.Qc.block
    else []
  end

let on_vote t kind (block : Qc.block_ref) partial =
  let r = t.rep in
  if not (Replica.is_leader r) then []
  else
    match Replica.add_vote r r.votes ~phase:kind ~block partial with
    | Vote_collector.Quorum qc -> (
        match kind with
        | Qc.Prepare ->
            Replica.raise_high r qc;
            Replica.raise_lock r qc;
            [ Replica.broadcast_cert r qc ]
        | Qc.Commit -> Replica.commit_tail r qc ~propose:(fun () -> try_propose t)
        | Qc.Pre_prepare | Qc.Precommit -> [])
    | Vote_collector.Counted _ | Vote_collector.Rejected _ -> []

(* Naive view change: the leader extends the highest QC in the first
   quorum of NEW-VIEW messages. The unsafe snapshots of Figure 2b are
   exactly the ones where this misses somebody's lock. *)
let enter_view t = Replica.enter_new_view t.rep ~propose:(fun () -> try_propose t)

let step t (m : Message.t) =
  let r = t.rep in
  match m.Message.payload with
  | Message.New_view { justify } ->
      if Replica.to_leader r m then
        Replica.on_new_view r ~propose:(fun () -> try_propose t) m justify
      else []
  | Message.Propose { block; justify } ->
      if Replica.from_leader r m then accept_propose t block justify else []
  | Message.Vote { kind; block; partial; locked = _ } ->
      if m.Message.view = r.cview then on_vote t kind block partial else []
  | Message.Phase_cert qc -> (
      match qc.Qc.phase with
      | Qc.Prepare -> accept_prepare_cert t qc
      | Qc.Commit | Qc.Pre_prepare | Qc.Precommit -> [])
  | Message.View_change _ | Message.Pre_prepare _ | Message.New_view_proof _
  | Message.Fetch _ | Message.Fetch_resp _ | Message.Client_op _
  | Message.Client_reply _ ->
      []

include Replica.Drive (struct
  type nonrec t = t
  let replica t = t.rep
  let verify_justify = Some Replica.verify_single
  let step = step
  let try_propose = try_propose
  let enter_view = enter_view
end)
