(* The replica skeleton under every protocol in this library: shared state,
   commit handling, the view-change message store, fast-forward and the
   entry points. A protocol file keeps only its phase logic. *)

open Marlin_types
module C = Consensus_intf
module Obs = Marlin_obs.Sink

type t = {
  cfg : C.config;
  auth : Auth.t;
  store : Block_store.t;
  com : Committer.t;
  votes : Vote_collector.t;
  pacemaker : Pacemaker.t;
  mutable cview : int;
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
    pacemaker = Pacemaker.create ~base:cfg.C.base_timeout ~max:cfg.C.max_timeout;
    cview = 0;
  }

let me r = r.cfg.C.id
let leader_of r view = C.leader_of r.cfg view
let is_leader r = leader_of r r.cview = me r
let msg r payload = Message.make ~sender:(me r) ~view:r.cview payload
let from_leader r (m : Message.t) =
  m.Message.view = r.cview && m.Message.sender = leader_of r r.cview
let to_leader r (m : Message.t) =
  m.Message.view >= r.cview && leader_of r m.Message.view = me r

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

let vote r ~kind ?locked (block : Qc.block_ref) =
  let partial = Auth.sign_vote r.auth ~signer:(me r) ~phase:kind ~view:r.cview block in
  Obs.vote r.cfg.C.obs ~view:r.cview ~height:block.Qc.height
    ~phase:(phase_label kind);
  msg r (Message.Vote { kind; block; partial; locked })

let vote_to_leader r ~kind ?locked block =
  [ C.Send { dst = leader_of r r.cview; msg = vote r ~kind ?locked block } ]

(* One vote per key (phase and block) and view: [false] once recorded. *)
let first_vote seen key =
  (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true)

let verify_single auth = function
  | High_qc.Single qc -> Auth.verify_qc auth qc
  | High_qc.Paired _ -> false

(* ---------- view change ---------- *)

type 'a view_msgs = (int, (int * 'a) list) Hashtbl.t

let view_msgs () = Hashtbl.create 4

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

let enter r vm view =
  r.cview <- view;
  Vote_collector.gc_below_view r.votes view;
  Hashtbl.filter_map_inplace
    (fun v msgs -> if v < view then None else Some msgs)
    vm

let view_timer r ~send =
  C.timer
    ~cause:(if send then C.View_change else C.View_progress)
    (Pacemaker.current_timeout r.pacemaker)

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

  let deliver t m =
    let ff =
      match P.verify_justify with
      | Some verify -> fast_forward t verify m
      | None -> []
    in
    ff @ P.step t m

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
  let cpu_meter t = Auth.meter (P.replica t).auth
end
