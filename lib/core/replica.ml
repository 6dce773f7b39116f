(* The replica skeleton under every protocol in this library: shared state
   (the lock, the highQC and the leader's in-flight block included), commit
   handling, proposing, the leader's certificate tails, the view-change
   message store, HotStuff's NEW-VIEW collection, fast-forward and the
   entry points. A protocol file keeps only its phase rules. *)

open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module C = Consensus_intf
module Obs = Marlin_obs.Sink

type 'a view_msgs = (int, (int * 'a) list) Hashtbl.t

let view_msgs () = Hashtbl.create 4

type t = {
  cfg : C.config;
  auth : Auth.t;
  store : Block_store.t;
  com : Committer.t;
  votes : Vote_collector.t;
  voted : (string, int) Hashtbl.t;
  pacemaker : Pacemaker.t;
  mutable cview : int;
  mutable locked : Qc.t;
  mutable high : High_qc.t;
  mutable in_flight : Sha256.t option;
  mutable collecting : bool;
  new_views : Qc.t view_msgs;
}

let create cfg =
  let meter = Cpu_meter.create cfg.C.cost in
  let auth = Auth.create ~keychain:cfg.C.keychain ~meter ~quorum:(C.quorum cfg) in
  let store = Block_store.create () in
  {
    cfg;
    auth;
    store;
    com = Committer.create cfg store;
    votes = Vote_collector.create auth;
    voted = Hashtbl.create 8;
    pacemaker = Pacemaker.create ~base:cfg.C.base_timeout ~max:cfg.C.max_timeout;
    cview = 0;
    locked = Qc.genesis;
    high = High_qc.genesis;
    in_flight = None;
    collecting = false;
    new_views = view_msgs ();
  }

let me r = r.cfg.C.id
let leader_of r view = C.leader_of r.cfg view
let is_leader r = leader_of r r.cview = me r
let msg r payload = Message.make ~sender:(me r) ~view:r.cview payload
let from_leader r (m : Message.t) =
  m.Message.view = r.cview && m.Message.sender = leader_of r r.cview
let to_leader r (m : Message.t) =
  m.Message.view >= r.cview && leader_of r m.Message.view = me r

(* Rank compare-and-set: an equal-rank QC leaves the held one in place. *)
let raise_lock r qc = if Rank.qc_gt qc r.locked then r.locked <- qc

let raise_high r qc =
  if Rank.qc_gt qc (High_qc.primary r.high) then r.high <- High_qc.Single qc

let adopt_high r high = r.high <- high

(* Turn a committer result into actions; commits reset the pacemaker. *)
let finish_commits r (res : Committer.result) =
  match res.Committer.committed with
  | [] -> res.Committer.sends
  | _ :: _ -> begin
    Pacemaker.note_progress r.pacemaker;
    if Obs.enabled r.cfg.C.obs then begin
      let blocks = List.length res.Committer.committed in
      let ops =
        List.fold_left
          (fun acc b -> acc + Batch.length b.Block.payload)
          0 res.Committer.committed
      in
      let height =
        List.fold_left
          (fun acc b -> max acc b.Block.height)
          0 res.Committer.committed
      in
      Obs.commit r.cfg.C.obs ~view:r.cview ~height ~blocks ~ops
    end;
    C.Commit res.Committer.committed
    :: C.timer (Pacemaker.current_timeout r.pacemaker)
    :: res.Committer.sends
  end

let note_block r b = finish_commits r (Committer.note_block r.com b)
let deliver_commit r qc = finish_commits r (Committer.deliver r.com ~view:r.cview qc)

(* Chained pipelines commit block k only when a QC for a descendant forms;
   when client load pauses, the leader flushes the tail with empty blocks
   until every operation-bearing block is committed (Jolteon's "dummy
   blocks"). Stop once only empty blocks hang uncommitted. *)
let needs_flush r ~chained (tip : Qc.block_ref) =
  chained
  &&
  let head = Block_store.last_committed r.store in
  let rec go digest =
    match Block_store.find r.store digest with
    | None -> false
    | Some b ->
        b.Block.height > head.Block.height
        && ((not (Batch.is_empty b.Block.payload))
           ||
           match b.Block.pl with
           | Block.Hash d -> go d
           | Block.Root | Block.Nil -> (
               match Block_store.parent r.store b with
               | Some p -> go (Block.digest p)
               | None -> false))
  in
  go tip.Qc.digest

(* Static labels so emitting on the hot path allocates nothing. *)
let phase_label = function
  | Qc.Pre_prepare -> "pre-prepare"
  | Qc.Prepare -> "prepare"
  | Qc.Precommit -> "precommit"
  | Qc.Commit -> "commit"

let propose r (b : Block.t) ~justify =
  Obs.propose r.cfg.C.obs ~view:r.cview ~height:b.Block.height
    ~txs:(Batch.length b.Block.payload);
  C.Broadcast (msg r (Message.Propose { block = b; justify }))

let vote r ~kind ?locked (block : Qc.block_ref) =
  let partial = Auth.sign_vote r.auth ~signer:(me r) ~phase:kind ~view:r.cview block in
  Obs.vote r.cfg.C.obs ~view:r.cview ~height:block.Qc.height
    ~phase:(phase_label kind);
  msg r (Message.Vote { kind; block; partial; locked })

let vote_to_leader r ~kind ?locked block =
  [ C.Send { dst = leader_of r r.cview; msg = vote r ~kind ?locked block } ]

(* This view's own votes: the phases voted per raw digest, as a bit set. *)
let phase_bit phase = 1 lsl Qc.phase_to_int phase

let voted_phases r digest =
  match Hashtbl.find r.voted (Sha256.to_raw digest) with
  | phases -> phases
  | exception Not_found -> 0

let voted r phase digest = voted_phases r digest land phase_bit phase <> 0

let first_vote r phase digest =
  let phases = voted_phases r digest in
  phases land phase_bit phase = 0
  && (Hashtbl.replace r.voted (Sha256.to_raw digest) (phases lor phase_bit phase);
      true)

let add_vote r votes ~phase ~(block : Qc.block_ref) partial =
  match Vote_collector.add votes ~phase ~view:r.cview ~block partial with
  | Vote_collector.Quorum _ as quorum ->
      Obs.qc_formed r.cfg.C.obs ~view:r.cview ~height:block.Qc.height
        ~phase:(phase_label phase);
      quorum
  | (Vote_collector.Counted _ | Vote_collector.Rejected _) as other -> other

let verify_single auth = function
  | High_qc.Single qc -> Auth.verify_qc auth qc
  | High_qc.Paired _ -> false

(* ---------- the leader ---------- *)

let broadcast_cert r qc = C.Broadcast (msg r (Message.Phase_cert qc))

let idle_leader r = is_leader r && Option.is_none r.in_flight && not r.collecting

let propose_in_flight r b =
  r.in_flight <- Some (Block.digest b);
  [ propose r b ~justify:r.high ]

let propose_child r ~chained =
  let qc = High_qc.primary r.high in
  let payload = r.cfg.C.get_batch () in
  if Batch.is_empty payload && not (needs_flush r ~chained qc.Qc.block) then []
  else begin
    let b =
      Block.make_child_of_ref ~parent:qc.Qc.block ~view:r.cview ~payload
        ~justify:(Block.J_qc qc)
    in
    ignore (note_block r b);
    propose_in_flight r b
  end

let commit_tail r (qc : Qc.t) ~propose =
  if (match r.in_flight with
     | Some d -> Sha256.equal d qc.Qc.block.Qc.digest
     | None -> false)
  then r.in_flight <- None;
  broadcast_cert r qc :: propose ()

(* Pipelining: the new QC rides in the next proposal; the certificate is
   broadcast only when there is nothing to propose. *)
let chained_tail r qc commits ~propose =
  r.in_flight <- None;
  match propose () with
  | [] -> commits @ [ broadcast_cert r qc ]
  | next -> commits @ next

(* ---------- view change ---------- *)

type stored = Duplicate | Stored | Join

(* Callers only store messages for views this replica leads (pbft, whose
   view-change messages are broadcast, stores them all). View
   synchronization: f+1 messages for a later view contain at least one
   correct replica's timeout — join that view instead of waiting for our
   own timer, or desynchronized replicas chase each other's views
   forever. *)
let store_view_msg r vm (m : Message.t) x =
  let existing = Option.value ~default:[] (Hashtbl.find_opt vm m.Message.view) in
  if List.mem_assoc m.Message.sender existing then Duplicate
  else begin
    Hashtbl.replace vm m.Message.view ((m.Message.sender, x) :: existing);
    if
      m.Message.view > r.cview
      && List.length existing + 1 >= C.weak_quorum r.cfg
    then begin
      Obs.view_enter r.cfg.C.obs ~view:m.Message.view ~cause:"sync";
      Join
    end
    else Stored
  end

let view_quorum r vm =
  match Hashtbl.find_opt vm r.cview with
  | Some msgs when List.length msgs >= C.quorum r.cfg -> Some (List.map snd msgs)
  | Some _ | None -> None

let enter r vm view ~send =
  r.cview <- view;
  r.in_flight <- None;
  r.collecting <- send && is_leader r;
  Vote_collector.gc_below_view r.votes view;
  Hashtbl.reset r.voted;
  Hashtbl.filter_map_inplace
    (fun v msgs -> if v < view then None else Some msgs)
    vm;
  if send then Obs.view_change_enter r.cfg.C.obs ~view;
  C.timer
    ~cause:(if send then C.View_change else C.View_progress)
    (Pacemaker.current_timeout r.pacemaker)

let exit_view_change r =
  r.collecting <- false;
  Obs.view_change_exit r.cfg.C.obs ~view:r.cview

(* HotStuff's view change: every replica sends its highQC to the new
   leader, which extends the highest QC of the first quorum. *)
let rec on_new_view r ~propose (m : Message.t) qc =
  if not (Auth.verify_qc r.auth qc) then []
  else
    match store_view_msg r r.new_views m qc with
    | Duplicate -> []
    | Join -> enter_new_view r ~propose m.Message.view ~send:true
    | Stored -> (
        match view_quorum r r.new_views with
        | Some qcs when is_leader r && r.collecting ->
            List.iter (raise_high r) qcs;
            exit_view_change r;
            propose ()
        | Some _ | None -> [])

and enter_new_view r ~propose view ~send =
  let timer = enter r r.new_views view ~send in
  if not send then [ timer ]
  else begin
    let qc = High_qc.primary r.high in
    let m = msg r (Message.New_view { justify = qc }) in
    timer
    ::
    (if is_leader r then on_new_view r ~propose m qc
     else [ C.Send { dst = leader_of r view; msg = m } ])
  end

(* ---------- entry points ---------- *)

type replica = t

module type PHASES = sig
  type t

  val replica : t -> replica
  val verify_justify : (Auth.t -> High_qc.t -> bool) option
  val step : t -> Message.t -> C.action list
  val try_propose : t -> C.action list
  val enter_view : t -> int -> send:bool -> C.action list
end

module Drive (P : PHASES) = struct
  (* Fast-forward: a verified QC formed in a later view proves a quorum
     moved there; joining is safe and keeps lagging replicas in sync
     without extra messages. *)
  let fast_forward t verify (m : Message.t) =
    let r = P.replica t in
    let proof =
      m.Message.view > r.cview
      &&
      match m.Message.payload with
      | Message.Propose { justify; _ } ->
          (High_qc.primary justify).Qc.view = m.Message.view && verify r.auth justify
      | Message.Phase_cert qc ->
          qc.Qc.view = m.Message.view && Auth.verify_qc r.auth qc
      | Message.Vote _ | Message.View_change _ | Message.Pre_prepare _
      | Message.New_view _ | Message.New_view_proof _ | Message.Fetch _
      | Message.Fetch_resp _ | Message.Client_op _ | Message.Client_reply _ ->
          false
    in
    if proof then begin
      Pacemaker.note_progress r.pacemaker;
      Obs.view_enter r.cfg.C.obs ~view:m.Message.view ~cause:"fast-forward";
      P.enter_view t m.Message.view ~send:false
    end
    else []

  (* The arms every protocol shares: state transfer and verified commit
     certificates, which apply at any view. *)
  let step t (m : Message.t) =
    let r = P.replica t in
    match m.Message.payload with
    | Message.Fetch { digest } ->
        Committer.handle_fetch r.com ~sender:m.Message.sender ~view:r.cview digest
    | Message.Fetch_resp { block } -> note_block r block
    | Message.Phase_cert ({ Qc.phase = Qc.Commit; _ } as qc) ->
        if Auth.verify_qc r.auth qc then deliver_commit r qc else []
    | Message.Phase_cert _ | Message.Propose _ | Message.Vote _
    | Message.View_change _ | Message.Pre_prepare _ | Message.New_view _
    | Message.New_view_proof _ | Message.Client_op _ | Message.Client_reply _ ->
        P.step t m

  let deliver t m =
    let ff =
      match P.verify_justify with
      | Some verify -> fast_forward t verify m
      | None -> []
    in
    ff @ step t m

  (* Process self-addressed sends — and the local copy of broadcasts —
     internally, so the protocol is closed under its own messages and unit
     tests can drive it without a network. A [Broadcast] in the returned
     actions therefore means "deliver to every *other* replica". *)
  let rec settle t actions =
    List.concat_map
      (function
        | C.Send { dst; msg } when dst = me (P.replica t) -> settle t (deliver t msg)
        | C.Broadcast msg as b -> b :: settle t (deliver t msg)
        | (C.Send _ | C.Commit _ | C.Timer _) as a -> [ a ])
      actions

  let on_message t m = settle t (deliver t m)

  let on_start t =
    C.timer (Pacemaker.current_timeout (P.replica t).pacemaker)
    :: settle t (P.try_propose t)

  let on_new_payload t = settle t (P.try_propose t)

  let next_view t ~cause =
    let r = P.replica t in
    Obs.view_enter r.cfg.C.obs ~view:(r.cview + 1) ~cause;
    settle t (P.enter_view t (r.cview + 1) ~send:true)

  let force_view_change t = next_view t ~cause:"rotation"

  (* Timeouts always escalate (the paper's pacemaker): a replica cannot
     tell locally whether the system is idle or the leader is failing
     other replicas' operations. Idle clusters rotate views cheaply via
     the happy path, with exponential backoff bounding the rate. *)
  let on_view_timeout t =
    Pacemaker.note_view_change (P.replica t).pacemaker;
    next_view t ~cause:"timeout"

  let current_view t = (P.replica t).cview
  let is_leader t = is_leader (P.replica t)
  let committed_head t = Block_store.last_committed (P.replica t).store
  let committed_count t = Committer.committed_count (P.replica t).com
  let block_store t = (P.replica t).store
  let locked_qc t = (P.replica t).locked
  let high_qc t = (P.replica t).high
  let cpu_meter t = Auth.meter (P.replica t).auth
end
