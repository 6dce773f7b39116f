type component = Cpu | Nic_queue | Serialize | Propagate | Quorum_wait

let component_name = function
  | Cpu -> "cpu"
  | Nic_queue -> "nic-queue"
  | Serialize -> "serialize"
  | Propagate -> "propagate"
  | Quorum_wait -> "quorum-wait"

let all_components = [ Cpu; Nic_queue; Serialize; Propagate; Quorum_wait ]

let component_index = function
  | Cpu -> 0
  | Nic_queue -> 1
  | Serialize -> 2
  | Propagate -> 3
  | Quorum_wait -> 4

type segment = {
  component : component;
  start_time : float;
  stop_time : float;
  replica : int;
  phase : string;
}

let duration s = s.stop_time -. s.start_time

type t = {
  replica : int;
  height : int;
  view : int;
  blocks : int;
  ops : int;
  propose_time : float;
  commit_time : float;
  segments : segment list;
  complete : bool;
}

let total t = t.commit_time -. t.propose_time

let attributed t =
  List.fold_left (fun acc s -> acc +. duration s) 0. t.segments

let quorum_waits t =
  List.fold_left
    (fun acc s -> if s.component = Quorum_wait then acc + 1 else acc)
    0 t.segments

let component_total t c =
  List.fold_left
    (fun acc s -> if s.component = c then acc +. duration s else acc)
    0. t.segments

(* ------------------------------------------------------------------ *)
(* Preprocessing: the trace, indexed for backward causal search        *)
(* ------------------------------------------------------------------ *)

(* Emission order is causal order: within one simulated instant the buffer
   still records delivery before the handler's protocol events before the
   handler's sends, so every backward search is by buffer index, never by
   (ambiguous) timestamp. *)

type cause =
  | C_propose of { idx : int; time : float; height : int }
  | C_qc of { idx : int; time : float; height : int; phase : string }
  | C_deliver of { idx : int; time : float; id : int }

type vote_deliver = { vd_idx : int; vd_id : int }

type vote_sent = { vs_idx : int; vs_time : float; vs_phase : string }

type queued = {
  qu_idx : int;
  qu_time : float;
  qu_src : int;
  qu_ready : float;
  qu_depart : float;
  qu_tx : float;
}

type commit_ev = {
  cm_idx : int;
  cm_time : float;
  cm_replica : int;
  cm_height : int;
  cm_view : int;
  cm_blocks : int;
  cm_ops : int;
}

type pre = {
  causes : cause array array; (* per endpoint, ascending idx *)
  vote_delivers : vote_deliver array array;
  votes : vote_sent array array;
  queued : (int, queued) Hashtbl.t; (* by message id, client kinds left out *)
  commits : commit_ev list; (* oldest first *)
}

let is_vote_kind k = String.starts_with ~prefix:"VOTE-" k

(* Client traffic and state transfer never explain a commit: [walk] only
   looks up the ids of vote and cause deliveries. *)
let is_client_kind = function
  | "CLIENT-OP" | "CLIENT-REPLY" | "FETCH" | "FETCH-RESP" -> true
  | _ -> false

let preprocess (events : Trace.event list) =
  let max_ep =
    List.fold_left
      (fun acc (e : Trace.event) ->
        let m = max acc e.Trace.replica in
        match e.Trace.kind with
        | Trace.Net_queued { src; dst; _ } | Trace.Net_delivered { src; dst; _ }
          ->
            max m (max src dst)
        | _ -> m)
      0 events
  in
  let n = max_ep + 1 in
  let causes = Array.make n [] in
  let vds = Array.make n [] in
  let vss = Array.make n [] in
  let queued = Hashtbl.create 1024 in
  let commits = ref [] in
  List.iteri
    (fun idx (e : Trace.event) ->
      let r = e.Trace.replica in
      match e.Trace.kind with
      | Trace.Propose _ ->
          causes.(r) <-
            C_propose { idx; time = e.Trace.time; height = e.Trace.height }
            :: causes.(r)
      | Trace.Qc_formed { phase } ->
          causes.(r) <-
            C_qc { idx; time = e.Trace.time; height = e.Trace.height; phase }
            :: causes.(r)
      | Trace.Vote_sent { phase } ->
          vss.(r) <-
            { vs_idx = idx; vs_time = e.Trace.time; vs_phase = phase }
            :: vss.(r)
      | Trace.Commit { blocks; ops } ->
          commits :=
            {
              cm_idx = idx;
              cm_time = e.Trace.time;
              cm_replica = r;
              cm_height = e.Trace.height;
              cm_view = e.Trace.view;
              cm_blocks = blocks;
              cm_ops = ops;
            }
            :: !commits
      | Trace.Net_queued { id; src; msg; ready; depart; tx; _ } ->
          if not (is_client_kind msg) then
            Hashtbl.replace queued id
              {
                qu_idx = idx;
                qu_time = e.Trace.time;
                qu_src = src;
                qu_ready = ready;
                qu_depart = depart;
                qu_tx = tx;
              }
      | Trace.Net_delivered { id; dst; msg; _ } ->
          if dst >= 0 && dst < n then
            if is_vote_kind msg then
              vds.(dst) <- { vd_idx = idx; vd_id = id } :: vds.(dst)
            else if not (is_client_kind msg) then
              causes.(dst) <-
                C_deliver { idx; time = e.Trace.time; id } :: causes.(dst)
      | Trace.View_enter _ | Trace.View_change_enter | Trace.View_change_exit
      | Trace.Timer_armed _ | Trace.Timer_fired _ | Trace.Fault_injected _ ->
          ())
    events;
  {
    causes = Array.map (fun l -> Array.of_list (List.rev l)) causes;
    vote_delivers = Array.map (fun l -> Array.of_list (List.rev l)) vds;
    votes = Array.map (fun l -> Array.of_list (List.rev l)) vss;
    queued;
    commits = List.rev !commits;
  }

(* Greatest element of [arr] (ascending by [key]) with [key < before]. *)
let find_last arr ~key ~before =
  let lo = ref 0 and hi = ref (Array.length arr) in
  (* invariant: every element < !lo has key < before; every >= !hi doesn't *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key arr.(mid) < before then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None else Some arr.(!lo - 1)

let cause_idx = function
  | C_propose { idx; _ } | C_qc { idx; _ } | C_deliver { idx; _ } -> idx

let latest_cause pre ~replica ~before =
  if replica < 0 || replica >= Array.length pre.causes then None
  else find_last pre.causes.(replica) ~key:cause_idx ~before

let latest_vote_deliver pre ~replica ~before =
  if replica < 0 || replica >= Array.length pre.vote_delivers then None
  else find_last pre.vote_delivers.(replica) ~key:(fun v -> v.vd_idx) ~before

let latest_vote_sent pre ~replica ~before =
  if replica < 0 || replica >= Array.length pre.votes then None
  else find_last pre.votes.(replica) ~key:(fun v -> v.vs_idx) ~before

(* ------------------------------------------------------------------ *)
(* The backward causal walk                                            *)
(* ------------------------------------------------------------------ *)

let seg component ~replica ~phase ~start_time ~stop_time =
  { component; replica; phase; start_time; stop_time }

(* Walk back from the instant [t] (buffer position [idx]) at [replica],
   prepending segments until a Propose event anchors the span. Segments
   are contiguous by construction — each step covers exactly the interval
   between its cause and [t] — so their durations sum to
   [commit_time -. propose_time] once the anchor is found. *)
let rec walk pre ~replica ~idx ~t ~depth acc =
  if depth > 64 then (t, acc, false)
  else
    match latest_cause pre ~replica ~before:idx with
    | None -> (t, acc, false)
    | Some (C_propose p) ->
        (* handler time from the proposal to the point being explained *)
        let acc =
          seg Cpu ~replica ~phase:"" ~start_time:p.time ~stop_time:t :: acc
        in
        (p.time, acc, true)
    | Some (C_qc q) -> (
        let acc =
          seg Cpu ~replica ~phase:"" ~start_time:q.time ~stop_time:t :: acc
        in
        (* the QC formed when the quorum-completing vote was handled: the
           nearest preceding vote delivery is, by emission order, that vote *)
        match latest_vote_deliver pre ~replica ~before:q.idx with
        | None -> (q.time, acc, false)
        | Some vd -> (
            match Hashtbl.find_opt pre.queued vd.vd_id with
            | None -> (q.time, acc, false)
            | Some qu -> (
                match latest_vote_sent pre ~replica:qu.qu_src ~before:qu.qu_idx
                with
                | None ->
                    let acc =
                      seg Quorum_wait ~replica ~phase:q.phase
                        ~start_time:qu.qu_time ~stop_time:q.time :: acc
                    in
                    (qu.qu_time, acc, false)
                | Some v ->
                    (* everything between the decisive voter signing and the
                       certificate existing — the vote's NIC queue, wire and
                       flight time plus the leader-side wait — is what the
                       protocol spends *waiting for a quorum* *)
                    let acc =
                      seg Quorum_wait ~replica ~phase:q.phase
                        ~start_time:v.vs_time ~stop_time:q.time :: acc
                    in
                    walk pre ~replica:qu.qu_src ~idx:v.vs_idx ~t:v.vs_time
                      ~depth:(depth + 1) acc)))
    | Some (C_deliver d) -> (
        match Hashtbl.find_opt pre.queued d.id with
        | None -> (d.time, acc, false)
        | Some qu ->
            let acc =
              seg Cpu ~replica ~phase:"" ~start_time:d.time ~stop_time:t
              :: acc
            in
            let wire_end = qu.qu_depart +. qu.qu_tx in
            let acc =
              seg Propagate ~replica:qu.qu_src ~phase:"" ~start_time:wire_end
                ~stop_time:d.time :: acc
            in
            let acc =
              seg Serialize ~replica:qu.qu_src ~phase:""
                ~start_time:qu.qu_depart ~stop_time:wire_end :: acc
            in
            let acc =
              seg Nic_queue ~replica:qu.qu_src ~phase:""
                ~start_time:qu.qu_ready ~stop_time:qu.qu_depart :: acc
            in
            walk pre ~replica:qu.qu_src ~idx:qu.qu_idx ~t:qu.qu_ready
              ~depth:(depth + 1) acc)

let reconstruct events =
  let pre = preprocess events in
  List.map
    (fun c ->
      let anchor, segments, complete =
        walk pre ~replica:c.cm_replica ~idx:c.cm_idx ~t:c.cm_time ~depth:0 []
      in
      {
        replica = c.cm_replica;
        height = c.cm_height;
        view = c.cm_view;
        blocks = c.cm_blocks;
        ops = c.cm_ops;
        propose_time = anchor;
        commit_time = c.cm_time;
        segments;
        complete;
      })
    pre.commits

