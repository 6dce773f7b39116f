open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module C = Consensus_intf

let src = Logs.Src.create "marlin" ~doc:"Marlin protocol"

module Log = (val Logs.src_log src : Logs.LOG)

(* In chained mode there is no COMMIT voting phase: the leader proposes
   the next block as soon as a prepareQC forms, and a block commits on a
   two-chain — a prepareQC for a direct child formed in the same view (the
   child's voters locked the parent's QC, which is what the basic commit
   phase establishes too). *)
module Make (Mode : C.MODE) : C.PROTOCOL = struct
  let name = Mode.name
(* A view-change record: what one replica told the new leader. *)
type vc_record = {
  vc_last : Block.summary;
  vc_justify : High_qc.t;
  vc_parsig : Marlin_crypto.Threshold.partial;
}

(* Leader-side progress within the current view. *)
type mode =
  | Follower  (* not the leader of this view *)
  | Collecting_vc  (* waiting for a quorum of VIEW-CHANGE messages *)
  | Pre_preparing  (* PRE-PREPARE broadcast, waiting for votes *)
  | Normal  (* normal-case leader *)

type t = {
  rep : Replica.t;
  mutable lb : Block.t;  (* last voted block (prepare phase) *)
  mutable mode : mode;
  (* leader state, reset on view entry *)
  mutable current_proposals : Block.t list;  (* this view's PRE-PREPARE blocks *)
  mutable r2_locked : Qc.t option;  (* best prepareQC from R2 votes *)
  mutable formed_ppqcs : Qc.t list;  (* pre-prepareQCs formed this view *)
  vc_msgs : vc_record Replica.view_msgs;
}

let create cfg =
  {
    rep = Replica.create cfg;
    lb = Block.genesis;
    mode = (if C.leader_of cfg 0 = cfg.C.id then Normal else Follower);
    current_proposals = [];
    r2_locked = None;
    formed_ppqcs = [];
    vc_msgs = Replica.view_msgs ();
  }

(* A well-formed virtual block relative to the prepareQC [qc] it justifies
   from: nil parent link, two heights above block(qc) (Case V1 shape). *)
let valid_virtual ~(child : Block.t) ~(qc : Qc.t) =
  Block.is_virtual child
  && child.Block.height = qc.Qc.block.Qc.height + 2
  && child.Block.pview = qc.Qc.block.Qc.block_view

(* Validity of a (qc, vc) pair: qc is a pre-prepareQC for a virtual block
   and vc is the prepareQC for its parent (Section V-B, Case N2). *)
let paired_consistent ~(qc : Qc.t) ~(vc : Qc.t) =
  Qc.phase_equal qc.Qc.phase Qc.Pre_prepare
  && qc.Qc.block.Qc.is_virtual
  && Qc.phase_equal vc.Qc.phase Qc.Prepare
  && vc.Qc.view = qc.Qc.block.Qc.pview
  && vc.Qc.block.Qc.height = qc.Qc.block.Qc.height - 1

let verify_high auth (h : High_qc.t) =
  match h with
  | High_qc.Single qc -> Auth.verify_qc auth qc
  | High_qc.Paired (qc, vc) ->
      paired_consistent ~qc ~vc
      && Auth.verify_qc auth qc && Auth.verify_qc auth vc

let retry_pending t = Replica.finish_commits t.rep (Committer.retry t.rep.com)

(* Chained commit rule (two-chain): a prepareQC for block c commits c's
   direct parent when c's own justify is the parent's prepareQC from the
   same view — c's voters locked that parent QC when they accepted c,
   which is exactly what the basic protocol's COMMIT phase establishes. *)
let process_chain_qc t (qc_c : Qc.t) =
  if not (Mode.chained && Qc.phase_equal qc_c.Qc.phase Qc.Prepare) then []
  else
    match Block_store.find t.rep.store qc_c.Qc.block.Qc.digest with
    | None -> []
    | Some c -> (
        match c.Block.justify with
        | Block.J_qc qc_p
          when Qc.phase_equal qc_p.Qc.phase Qc.Prepare
               && qc_p.Qc.view = qc_c.Qc.view
               && Block.directly_extends ~child:c ~parent:qc_p.Qc.block ->
            Replica.deliver_commit t.rep qc_p
        | Block.J_qc _ | Block.J_paired _ | Block.J_genesis -> [])

(* ---------- proposing (leader) ---------- *)

(* Propose per the normal case. Case N1: extend block(highQC) with fresh
   payload. Case N2: re-broadcast the block certified by the
   pre-prepareQC. *)
let try_propose t =
  let r = t.rep in
  if
    (not (Replica.is_leader r))
    || Option.is_some r.in_flight
    || t.mode <> Normal
  then []
  else
    match r.high with
    | High_qc.Single { Qc.phase = Qc.Prepare; _ } ->
        (* Case N1 *)
        Replica.propose_child r ~chained:Mode.chained
    | High_qc.Single ({ Qc.phase = Qc.Pre_prepare; _ } as qc)
    | High_qc.Paired (qc, _) -> (
        (* Case N2: propose block(qc) itself. *)
        match Block_store.find r.store qc.Qc.block.Qc.digest with
        | None -> []
        | Some b -> Replica.propose_in_flight r b)
    | High_qc.Single _ -> []

(* ---------- prepare phase (replica side) ---------- *)

let accept_propose t (block : Block.t) (justify : High_qc.t) =
  let r = t.rep in
  let b_ref = Block.to_ref block in
  let justify_ok =
    match justify with
    | High_qc.Single ({ Qc.phase = Qc.Prepare; _ } as qc) ->
        (* Case N1 *)
        Block.directly_extends ~child:block ~parent:qc.Qc.block
        && qc.Qc.view = r.cview
        && Rank.qc_geq qc r.locked
        && Auth.verify_qc r.auth qc
        && Block.justify_equal block.Block.justify (Block.J_qc qc)
    | High_qc.Single ({ Qc.phase = Qc.Pre_prepare; _ } as qc) ->
        (* Case N2, normal block *)
        Sha256.equal qc.Qc.block.Qc.digest b_ref.Qc.digest
        && (not qc.Qc.block.Qc.is_virtual)
        && qc.Qc.view = r.cview
        && Rank.qc_geq qc r.locked
        && Auth.verify_qc r.auth qc
    | High_qc.Paired (qc, vc) ->
        (* Case N2, virtual block: validate the pair. *)
        Sha256.equal qc.Qc.block.Qc.digest b_ref.Qc.digest
        && qc.Qc.view = r.cview
        && Rank.qc_geq qc r.locked
        && paired_consistent ~qc ~vc
        && Auth.verify_qc r.auth qc && Auth.verify_qc r.auth vc
    | High_qc.Single _ -> false
  in
  if not justify_ok then begin
    Log.debug (fun l ->
        l "replica %d view %d: reject propose %a (justify invalid, locked=%a, justify=%a)"
          (Replica.me r) r.cview Block.pp block Qc.pp r.locked High_qc.pp justify);
    []
  end
  else if not (Rank.block_gt (Block.summary block) (Block.summary t.lb)) then begin
    Log.debug (fun l ->
        l "replica %d view %d: reject propose %a (rank not above lb %a)"
          (Replica.me r) r.cview Block.pp block Block.pp t.lb);
    []
  end
  else begin
    let adds = Replica.note_block r block in
    (* A virtual block now has a validated parent: graft it, and retry any
       commit that was waiting on the link. *)
    let adds =
      match justify with
      | High_qc.Paired (_, vc) ->
          Block_store.resolve_virtual_parent r.store
            ~virtual_digest:b_ref.Qc.digest ~parent_digest:vc.Qc.block.Qc.digest;
          adds @ retry_pending t
      | High_qc.Single _ -> adds
    in
    t.lb <- block;
    Replica.adopt_high r justify;
    (match justify with
    | High_qc.Single ({ Qc.phase = Qc.Prepare; _ } as qc) -> Replica.raise_lock r qc
    | High_qc.Single _ | High_qc.Paired _ -> ());
    let chain_commits =
      match justify with
      | High_qc.Single ({ Qc.phase = Qc.Prepare; _ } as qc) -> process_chain_qc t qc
      | High_qc.Single _ | High_qc.Paired _ -> []
    in
    adds @ chain_commits @ Replica.vote_to_leader r ~kind:Qc.Prepare b_ref
  end

(* ---------- commit phase (replica side) ---------- *)

let accept_prepare_cert t (qc : Qc.t) =
  let r = t.rep in
  if not (Auth.verify_qc r.auth qc) then []
  else begin
    (* State updates are safe whenever the certificate outranks what we
       hold; the COMMIT vote itself requires the current view (paper:
       "verifies whether the prepareQC is generated in current view"). *)
    Replica.raise_lock r qc;
    Replica.raise_high r qc;
    if Mode.chained then process_chain_qc t qc
    else if
      qc.Qc.view = r.cview
      && Replica.first_vote r Qc.Commit qc.Qc.block.Qc.digest
    then Replica.vote_to_leader r ~kind:Qc.Commit qc.Qc.block
    else []
  end

(* ---------- votes (leader side) ---------- *)

let on_prepare_vote t (block : Qc.block_ref) partial =
  let r = t.rep in
  if not (Replica.is_leader r) then []
  else
    match Replica.add_vote r r.votes ~phase:Qc.Prepare ~block partial with
    | Vote_collector.Quorum qc ->
        Replica.adopt_high r (High_qc.Single qc);
        Replica.raise_lock r qc;
        if Mode.chained then
          Replica.chained_tail r qc (process_chain_qc t qc)
            ~propose:(fun () -> try_propose t)
        else [ Replica.broadcast_cert r qc ]
    | Vote_collector.Counted _ | Vote_collector.Rejected _ -> []

let on_commit_vote t (block : Qc.block_ref) partial =
  let r = t.rep in
  if not (Replica.is_leader r) then []
  else
    match Replica.add_vote r r.votes ~phase:Qc.Commit ~block partial with
    | Vote_collector.Quorum qc ->
        Replica.commit_tail r qc ~propose:(fun () -> try_propose t)
    | Vote_collector.Counted _ | Vote_collector.Rejected _ -> []

(* ---------- view change: leader ---------- *)

(* Compute highQC_v — the highest-rank valid QC(s) from a quorum of
   view-change records — keeping at most one prepareQC or up to two
   pre-prepareQCs (Lemma 4), and remembering the paired vc for virtual
   ones. *)
let select_high_qcv t (records : vc_record list) =
  let highs =
    List.filter (verify_high t.rep.auth) (List.map (fun r -> r.vc_justify) records)
  in
  match highs with
  | [] -> []
  | first :: rest ->
      let best = List.fold_left High_qc.max_by_rank first rest in
      let best_rank = High_qc.primary best in
      let equal_rank =
        List.filter (fun h -> Rank.qc (High_qc.primary h) best_rank = Rank.Eq) highs
      in
      (* Dedup by certified block digest. *)
      let seen = Hashtbl.create 4 in
      List.filter
        (fun h ->
          let d = Sha256.to_raw (High_qc.primary h).Qc.block.Qc.digest in
          if Hashtbl.mem seen d then false
          else begin
            Hashtbl.replace seen d ();
            true
          end)
        equal_rank

let start_pre_prepare t (records : vc_record list) =
  let r = t.rep in
  Log.debug (fun l ->
      l "replica %d view %d: start_pre_prepare with %d records" (Replica.me r) r.cview
        (List.length records));
  let bv =
    List.fold_left
      (fun acc r -> if Rank.block_gt r.vc_last acc then r.vc_last else acc)
      (List.hd records).vc_last (List.tl records)
  in
  let high_qcv = select_high_qcv t records in
  t.mode <- Pre_preparing;
  Log.debug (fun l ->
      l "replica %d view %d: highQCv has %d entries, bv height %d" (Replica.me r)
        r.cview (List.length high_qcv) bv.Block.b_ref.Qc.height);
  match high_qcv with
  | [] -> []
  | [ High_qc.Single ({ Qc.phase = Qc.Prepare; _ } as qc) ]
    when Rank.block_gt bv
           { Block.b_ref = qc.Qc.block; justify_current = false } ->
      (* Case V1: someone voted above block(qc); propose a normal block and
         a virtual shadow sibling. *)
      let payload = r.cfg.C.get_batch () in
      let b1 =
        Block.make_child_of_ref ~parent:qc.Qc.block ~view:r.cview ~payload
          ~justify:(Block.J_qc qc)
      in
      let b2 =
        Block.make_virtual ~pview:qc.Qc.block.Qc.block_view ~view:r.cview
          ~height:(qc.Qc.block.Qc.height + 2) ~payload ~justify:(Block.J_qc qc)
      in
      t.current_proposals <- [ b1; b2 ];
      ignore (Replica.note_block r b1);
      ignore (Replica.note_block r b2);
      [ C.Broadcast (Replica.msg r (Message.Pre_prepare { proposals = [ b1; b2 ] })) ]
  | [ single ] ->
      (* Case V2: safe snapshot (prepareQC at least as high as any voted
         block) or a single pre-prepareQC: one proposal extending it. *)
      let qc = High_qc.primary single in
      let payload = r.cfg.C.get_batch () in
      let b =
        Block.make_child_of_ref ~parent:qc.Qc.block ~view:r.cview ~payload
          ~justify:(High_qc.to_justify single)
      in
      t.current_proposals <- [ b ];
      ignore (Replica.note_block r b);
      [ C.Broadcast (Replica.msg r (Message.Pre_prepare { proposals = [ b ] })) ]
  | two -> (
      (* Case V3: two equal-rank pre-prepareQCs (one normal, one virtual);
         extend both with shadow blocks. *)
      let payload = r.cfg.C.get_batch () in
      let extend h =
        let qc = High_qc.primary h in
        Block.make_child_of_ref ~parent:qc.Qc.block ~view:r.cview ~payload
          ~justify:(High_qc.to_justify h)
      in
      match List.map extend two with
      | [] -> []
      | proposals ->
          t.current_proposals <- proposals;
          List.iter (fun b -> ignore (Replica.note_block r b)) proposals;
          [ C.Broadcast (Replica.msg r (Message.Pre_prepare { proposals })) ])

let maybe_start_view_change_leadership t =
  let r = t.rep in
  if Replica.is_leader r && t.mode = Collecting_vc then
    match Replica.view_quorum r t.vc_msgs with
    | Some records ->
        (* Happy path: everyone reports the same last voted block. *)
        let first = (List.hd records).vc_last in
        let all_same =
          List.for_all (fun r -> Block.summary_equal r.vc_last first) records
        in
        if all_same then begin
          let partials = List.map (fun r -> r.vc_parsig) records in
          match
            Auth.combine r.auth ~phase:Qc.Prepare ~view:r.cview first.Block.b_ref
              partials
          with
          | Ok qc ->
              Log.debug (fun m -> m "view %d: happy-path view change" r.cview);
              Replica.adopt_high r (High_qc.Single qc);
              t.mode <- Normal;
              Replica.exit_view_change r;
              try_propose t
          | Error _ -> start_pre_prepare t records
        end
        else start_pre_prepare t records
    | None -> []
  else []

let rec on_view_change_msg t (m : Message.t) last justify parsig =
  let record = { vc_last = last; vc_justify = justify; vc_parsig = parsig } in
  match Replica.store_view_msg t.rep t.vc_msgs m record with
  | Replica.Duplicate -> []
  | Replica.Join -> enter_view t m.Message.view ~send:true
  | Replica.Stored -> maybe_start_view_change_leadership t

and enter_view t view ~send =
  let r = t.rep in
  let timer = Replica.enter r t.vc_msgs view ~send in
  t.mode <- (if Replica.is_leader r then Collecting_vc else Follower);
  t.current_proposals <- [];
  t.r2_locked <- None;
  t.formed_ppqcs <- [];
  let vc_actions =
    if send then begin
      let lb_ref = (Block.summary t.lb).Block.b_ref in
      let parsig =
        Auth.sign_vote r.auth ~signer:(Replica.me r) ~phase:Qc.Prepare ~view lb_ref
      in
      let m =
        Replica.msg r
          (Message.View_change
             { last = Block.summary t.lb; justify = r.high; parsig })
      in
      if Replica.is_leader r then
        (* Handle our own view-change message directly. *)
        on_view_change_msg t m (Block.summary t.lb) r.high parsig
      else [ C.Send { dst = Replica.leader_of r view; msg = m } ]
    end
    else maybe_start_view_change_leadership t
  in
  timer :: vc_actions

(* ---------- view change: replica votes on PRE-PREPARE ---------- *)

let pre_prepare_vote t (b : Block.t) (locked : Qc.t option) =
  ignore (Replica.note_block t.rep b);
  ignore (Replica.first_vote t.rep Qc.Pre_prepare (Block.digest b));
  Replica.vote_to_leader t.rep ~kind:Qc.Pre_prepare ?locked (Block.to_ref b)

let consider_pre_prepare_proposal t (b : Block.t) =
  let r = t.rep in
  if Replica.voted r Qc.Pre_prepare (Block.digest b) then []
  else if b.Block.view <> r.cview then []
  else
    match High_qc.of_justify b.Block.justify with
    | None -> []
    | Some justify ->
        let qc = High_qc.primary justify in
        (* The justify must predate this view. *)
        if qc.Qc.view >= r.cview then []
        else begin
          let shape_ok =
            if Block.is_virtual b then valid_virtual ~child:b ~qc
            else Block.directly_extends ~child:b ~parent:qc.Qc.block
          in
          if not shape_ok then []
          else if not (verify_high r.auth justify) then []
          else if
            (* Case R1: the justify outranks our lock. *)
            Rank.qc_geq qc r.locked
          then pre_prepare_vote t b None
          else if
            (* Case R2: we are locked exactly one block above the justify;
               the virtual block stands in for our locked block's child.
               We attach our lockedQC so the leader can validate it. *)
            Block.is_virtual b
            && Qc.phase_equal qc.Qc.phase Qc.Prepare
            && qc.Qc.view = r.locked.Qc.view
            && qc.Qc.block.Qc.height = r.locked.Qc.block.Qc.height - 1
            && b.Block.height = r.locked.Qc.block.Qc.height + 1
          then pre_prepare_vote t b (Some r.locked)
          else if
            (* Case R3: the justify certifies exactly the block we are
               locked on. *)
            Qc.phase_equal qc.Qc.phase Qc.Pre_prepare
            && Sha256.equal qc.Qc.block.Qc.digest r.locked.Qc.block.Qc.digest
          then pre_prepare_vote t b None
          else []
        end

(* ---------- view change: leader collects PRE-PREPARE votes ---------- *)

(* Adopt a formed pre-prepareQC once it is usable: immediately for a normal
   block; for a virtual block only when a matching vc (from some R2 vote)
   validates it. *)
let try_finish_pre_prepare t =
  if t.mode <> Pre_preparing then []
  else
    let usable ppqc =
      if not ppqc.Qc.block.Qc.is_virtual then Some (High_qc.Single ppqc)
      else
        match t.r2_locked with
        | Some vc when paired_consistent ~qc:ppqc ~vc -> Some (High_qc.Paired (ppqc, vc))
        | Some _ | None -> None
    in
    (* Prefer a normal block when both completed. *)
    let normal_first =
      List.sort
        (fun a b ->
          Bool.compare a.Qc.block.Qc.is_virtual b.Qc.block.Qc.is_virtual)
        t.formed_ppqcs
    in
    match List.find_map usable normal_first with
    | None -> []
    | Some high ->
        Replica.adopt_high t.rep high;
        t.mode <- Normal;
        Replica.exit_view_change t.rep;
        (match high with
        | High_qc.Paired (ppqc, vc) ->
            Block_store.resolve_virtual_parent t.rep.store
              ~virtual_digest:ppqc.Qc.block.Qc.digest
              ~parent_digest:vc.Qc.block.Qc.digest
        | High_qc.Single _ -> ());
        try_propose t

let on_pre_prepare_vote t (block : Qc.block_ref) partial locked =
  let r = t.rep in
  if not (Replica.is_leader r) then []
  else begin
    (* Harvest the R2 lockedQC: a higher prepareQC we did not know about. *)
    (match locked with
    | Some vc
      when Qc.phase_equal vc.Qc.phase Qc.Prepare
           && Rank.qc_gt vc (High_qc.primary r.high)
           && Auth.verify_qc r.auth vc ->
        (match t.r2_locked with
        | Some cur when Rank.qc_geq cur vc -> ()
        | Some _ | None -> t.r2_locked <- Some vc)
    | Some _ | None -> ());
    match Replica.add_vote r r.votes ~phase:Qc.Pre_prepare ~block partial with
    | Vote_collector.Quorum ppqc ->
        t.formed_ppqcs <- ppqc :: t.formed_ppqcs;
        try_finish_pre_prepare t
    | Vote_collector.Counted _ ->
        (* A newly arrived vc can also unblock a waiting virtual ppqc. *)
        try_finish_pre_prepare t
    | Vote_collector.Rejected _ -> []
  end

(* ---------- dispatch ---------- *)

let step t (m : Message.t) =
  let r = t.rep in
  match m.Message.payload with
  | Message.Client_op _ | Message.Client_reply _ | Message.New_view _
  | Message.New_view_proof _ | Message.Fetch _ | Message.Fetch_resp _ ->
      []
  | Message.View_change { last; justify; parsig } ->
      (* Only relevant if we are (or will be) that view's leader. *)
      if Replica.to_leader r m then on_view_change_msg t m last justify parsig
      else []
  | Message.Propose { block; justify } ->
      if Replica.from_leader r m then accept_propose t block justify else []
  | Message.Pre_prepare { proposals } ->
      if Replica.from_leader r m && List.length proposals <= 2 then
        List.concat_map (consider_pre_prepare_proposal t) proposals
      else []
  | Message.Vote { kind; block; partial; locked } ->
      if m.Message.view <> r.cview then []
      else begin
        match kind with
        | Qc.Prepare -> on_prepare_vote t block partial
        | Qc.Commit -> on_commit_vote t block partial
        | Qc.Pre_prepare -> on_pre_prepare_vote t block partial locked
        | Qc.Precommit -> []
      end
  | Message.Phase_cert qc -> (
      match qc.Qc.phase with
      | Qc.Prepare -> accept_prepare_cert t qc
      | Qc.Commit | Qc.Pre_prepare | Qc.Precommit -> [])

include Replica.Drive (struct
  type nonrec t = t
  let replica t = t.rep
  let verify_justify = Some verify_high
  let step = step
  let try_propose = try_propose
  let enter_view = enter_view
end)

end
