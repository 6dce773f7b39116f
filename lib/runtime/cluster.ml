open Marlin_types
module C = Marlin_core.Consensus_intf
module Cpu_meter = Marlin_core.Cpu_meter
module Sim = Marlin_sim.Sim
module Netsim = Marlin_sim.Netsim
module Rng = Marlin_sim.Rng
module Sim_disk = Marlin_sim.Sim_disk
module Cost_model = Marlin_crypto.Cost_model
module Scenario = Marlin_faults.Scenario
module Stats = Marlin_analysis.Stats
module Workload = Marlin_workload.Workload
module Arrival = Marlin_workload.Arrival

type params = {
  n : int;
  f : int;
  workload : Workload.t;
  mempool : Mempool.Config.t;
  op_size : int;
  reply_size : int;
  batch_max : int;
  cost_model : Cost_model.t;
  base_timeout : float;
  max_timeout : float;
  rotation : float option;
  seed : int;
  obs : Marlin_obs.Run.t option;
}

let default_params =
  {
    n = 4;
    f = 1;
    workload = Workload.closed_loop ~clients:16;
    mempool = Mempool.Config.unbounded;
    op_size = 150;
    reply_size = 150;
    batch_max = 400;
    cost_model = Cost_model.ecdsa_group;
    base_timeout = 1.0;
    max_timeout = 16.0;
    rotation = None;
    seed = 1;
    obs = None;
  }

(* CPU seconds to execute one committed operation. *)
let exec_cost = 2e-6

let params_for_f ?workload f =
  let workload =
    match workload with Some w -> w | None -> default_params.workload
  in
  { default_params with f; n = (3 * f) + 1; workload }

(** Aggregate client-visible open-loop counters over a window (between
    {!open_loop_reset_window} and now). *)
type open_stats = {
  generated : int;  (** arrivals the workload offered *)
  sent : int;  (** ops actually put on the wire (not shed) *)
  shed : int;  (** shed at the source on contact-replica backpressure *)
  rejected : int;  (** rejected by admission control at the contact replica *)
  completed : int;  (** ops committed (first commit anywhere) *)
  latency : Stats.summary;  (** submit to first commit, seconds *)
  peak_occupancy : int;  (** max mempool occupancy seen at any replica *)
  inflight : int;  (** sent, neither rejected nor committed yet (now) *)
}

module Make (P : C.PROTOCOL) = struct
  type replica = {
    id : int;
    proto : P.t;
    obs : Marlin_obs.Sink.handle;
    mempool : Mempool.t;
    disk : Sim_disk.t;
    peers : int array; (* every replica id but this one, ascending *)
    mutable cpu_free : float;
    mutable timer_gen : int;
    mutable crashed : bool;
    mutable executed : int;
    mutable commit_log : (float * int) list; (* (time, ops) newest first *)
  }

  type client = {
    endpoint : int;
    index : int;
    mutable next_seq : int;
    mutable outstanding : int option;
    mutable submit_time : float;
    mutable repliers : int; (* replicas that replied to the outstanding seq *)
    mutable completion_gen : int; (* voids all but the latest completion *)
    mutable completed : (float * float) list; (* (time, latency) newest first *)
  }

  (* One open-loop generator endpoint: an arrival sampler over its own
     split RNG stream, drawing client keys uniformly from the key space —
     no per-client state, however many distinct keys exist. *)
  type source = {
    s_endpoint : int;
    s_index : int;
    s_rng : Rng.t; (* key draws *)
    s_sampler : Arrival.Sampler.t; (* owns its own split stream *)
    mutable s_next_seq : int;
  }

  type open_state = {
    key_space : int;
    nsources : int;
    srcs : source array;
    (* submit time of every op on the wire, keyed by (client, seq);
       removed at first commit or ingress rejection, so the table is
       bounded by true in-flight, not by key space *)
    inflight : float Pair_tbl.t;
    lat : Stats.Reservoir.t;
    mutable generated : int;
    mutable sent : int;
    mutable shed : int;
    mutable ingress_rejected : int;
    mutable completed_ops : int;
    mutable peak_occ : int;
    (* window marks: totals at the last [open_loop_reset_window] *)
    mutable base_generated : int;
    mutable base_sent : int;
    mutable base_shed : int;
    mutable base_rejected : int;
    mutable base_completed : int;
  }

  type t = {
    params : params;
    sim : Sim.t;
    net : Netsim.t;
    rng : Rng.t;
    replicas : replica array;
    clients : client array;
    reply_clients : int; (* closed-loop clients awaiting replies; 0 open-loop *)
    (* [reply_at.(client * n + replica)]: the earliest arrival of that
       replica's reply to the client's outstanding seq, [infinity] while
       none is on its way. Allocated by [start], when the clients begin:
       [create] does not pay for a major-heap block it never uses. *)
    mutable reply_at : float array;
    (* per client: the (f+1)-th smallest of its [reply_at] row, the instant
       it completes; [infinity] until f+1 replicas have replied *)
    reply_quorum_at : float array;
    select_buf : float array; (* one row, shared by every client *)
    open_loop : open_state option;
    sig_bytes : int;
    mutable started : bool;
    mutable vc_start : float option;
    mutable pre_prepare_seen : bool;
  }

  let sim t = t.sim
  let net t = t.net
  let params t = t.params
  let protocol t id = t.replicas.(id).proto

  (* Accounting size: codec size plus the operation/reply body padding the
     simulator does not materialize (bodies are empty in-sim). *)
  let message_size t (m : Message.t) =
    let base = Message.wire_size ~sig_bytes:t.sig_bytes m in
    let pad = Message.op_count m * t.params.op_size in
    let reply_pad =
      match m.Message.payload with
      | Message.Client_reply _ -> t.params.reply_size
      | _ -> 0
    in
    base + pad + reply_pad

  let send t ~earliest ~src ~dst m =
    Netsim.send t.net ~earliest ~src ~dst ~size:(message_size t m) m

  (* ---------- client side ---------- *)

  let rec submit_op t (cl : client) =
    let seq = cl.next_seq in
    cl.next_seq <- seq + 1;
    cl.outstanding <- Some seq;
    cl.submit_time <- Sim.now t.sim;
    let n = t.params.n in
    Array.fill t.reply_at (cl.index * n) n infinity;
    t.reply_quorum_at.(cl.index) <- infinity;
    cl.repliers <- 0;
    cl.completion_gen <- cl.completion_gen + 1;
    send_op t cl seq;
    watch_retry t cl seq

  (* Clients contact one replica; non-leaders relay to the leader (the
     mempool-relay pattern real deployments use). Contacting a fixed
     replica per client spreads relay load. On retry, fall over to the
     next replica in case the contact crashed. *)
  and send_op t (cl : client) ?(attempt = 0) seq =
    let op = Operation.make ~client:cl.index ~seq ~body:"" in
    let contact = (cl.index + attempt) mod t.params.n in
    send t ~earliest:(Sim.now t.sim) ~src:cl.endpoint ~dst:contact
      (Message.make ~sender:cl.endpoint ~view:0 (Message.Client_op op))

  (* Standard client-side retransmission: if no quorum of replies within
     the timeout, resend (replica-side dedup makes this harmless). *)
  and watch_retry t (cl : client) ?(attempt = 0) seq =
    let retry_after = Float.max 2.0 (2.5 *. t.params.base_timeout) in
    Sim.schedule_at t.sim
      ~time:(Sim.now t.sim +. retry_after)
      (fun () ->
        if Option.equal Int.equal cl.outstanding (Some seq) then begin
          send_op t cl ~attempt:(attempt + 1) seq;
          watch_retry t cl ~attempt:(attempt + 1) seq
        end)

  let complete t (cl : client) =
    cl.outstanding <- None;
    let now = Sim.now t.sim in
    cl.completed <- (now, now -. cl.submit_time) :: cl.completed;
    (match t.params.obs with
    | None -> ()
    | Some run -> (
        match Marlin_obs.Run.timeseries run with
        | None -> ()
        | Some ts ->
            Marlin_obs.Timeseries.note_completion ts ~time:now
              ~latency:(now -. cl.submit_time)));
    submit_op t cl

  (* Replica [r] answers [op]. A client completes when the (f+1)-th
     distinct replica's reply reaches it, and nothing else about a reply
     matters to it, so replies are posted rather than delivered: each one
     costs a Netsim admission, and one completion event is scheduled
     whenever a reply brings that instant forward. The client completes
     at the instant the deciding reply arrives, and the only events gone
     from the queue are reply deliveries, so every other event keeps its
     order; only an event at a bit-equal time can fall on the other side
     of a completion. A later copy from a replica that already replied
     cannot change the count and is ignored. *)
  let reply t (r : replica) ~earliest (op : Operation.t) =
    let client = op.Operation.client in
    if client < t.reply_clients then begin
      let cl = t.clients.(client) in
      let arrival =
        let m =
          Message.make ~sender:r.id ~view:0
            (Message.Client_reply { client; seq = op.Operation.seq })
        in
        Netsim.post t.net ~earliest ~src:r.id ~dst:cl.endpoint
          ~size:(message_size t m) m
      in
      match cl.outstanding with
      | Some seq when seq = op.Operation.seq ->
          let n = t.params.n in
          let slot = (client * n) + r.id in
          let prev = t.reply_at.(slot) in
          if arrival < prev then begin
            t.reply_at.(slot) <- arrival;
            if not (Float.is_finite prev) then cl.repliers <- cl.repliers + 1;
            let quorum = t.params.f + 1 in
            if cl.repliers >= quorum && arrival < t.reply_quorum_at.(client)
            then begin
              Array.blit t.reply_at (client * n) t.select_buf 0 n;
              Stats.select t.select_buf ~len:n ~k:(quorum - 1);
              let at = t.select_buf.(quorum - 1) in
              if at < t.reply_quorum_at.(client) then begin
                t.reply_quorum_at.(client) <- at;
                cl.completion_gen <- cl.completion_gen + 1;
                let gen = cl.completion_gen in
                Sim.schedule_at t.sim ~time:at (fun () ->
                    if gen = cl.completion_gen then complete t cl)
              end
            end
          end
      | Some _ | None -> ()
    end

  (* ---------- replica side ---------- *)

  let rec apply_replica_actions t (r : replica) ~start actions =
    (* The protocol handler already ran; charge its crypto time plus any
       execution/disk work the commits imply, then release the outputs at
       the CPU-completion instant. *)
    let crypto_cost = Cpu_meter.take (P.cpu_meter r.proto) in
    let commit_cost = ref 0. in
    let commits_rev = ref [] in
    List.iter
      (fun a ->
        match a with
        | C.Commit blocks ->
            List.iter
              (fun b ->
                (* executes each op once per replica: the mempool returns
                   only first-time commits *)
                let ops =
                  Mempool.mark_committed r.mempool (Batch.to_list b.Block.payload)
                in
                let block_bytes =
                  Block.wire_size ~sig_bytes:t.sig_bytes b
                  + (Batch.length b.Block.payload * t.params.op_size)
                in
                commit_cost :=
                  !commit_cost
                  +. Sim_disk.commit_cost r.disk ~bytes:block_bytes
                  +. (float_of_int (List.length ops) *. exec_cost)
                  +. Cost_model.hash_cost ~bytes:block_bytes;
                commits_rev := List.rev_append ops !commits_rev)
              blocks
        | C.Send _ | C.Broadcast _ | C.Timer _ -> ())
      actions;
    let commits = List.rev !commits_rev in
    let finish = start +. crypto_cost +. !commit_cost in
    r.cpu_free <- finish;
    (* record metrics *)
    (match commits with
    | [] -> ()
    | _ :: _ ->
        r.executed <- r.executed + List.length commits;
        r.commit_log <- (finish, List.length commits) :: r.commit_log);
    (* open loop: the first replica to execute an op closes its latency
       measurement (the mempool's first-commit filter means each op lands
       here once per replica, and the inflight lookup makes the first one
       win) *)
    (match (t.open_loop, commits) with
    | Some os, _ :: _ ->
        List.iter
          (fun (op : Operation.t) ->
            match Pair_tbl.find os.inflight op.client op.seq with
            | t0 ->
                Pair_tbl.remove os.inflight op.client op.seq;
                os.completed_ops <- os.completed_ops + 1;
                Stats.Reservoir.add os.lat (finish -. t0);
                (match t.params.obs with
                | None -> ()
                | Some run -> (
                    match Marlin_obs.Run.timeseries run with
                    | None -> ()
                    | Some ts ->
                        Marlin_obs.Timeseries.note_completion ts ~time:finish
                          ~latency:(finish -. t0)))
            | exception Not_found -> ())
          commits
    | _ -> ());
    (* emit *)
    List.iter
      (fun a ->
        match a with
        | C.Send { dst; msg } -> send t ~earliest:finish ~src:r.id ~dst msg
        | C.Broadcast msg ->
            (* one size computation for all peers *)
            Netsim.broadcast t.net ~earliest:finish ~src:r.id ~dsts:r.peers
              ~size:(message_size t msg) msg
        | C.Timer { duration = d; cause } ->
            r.timer_gen <- r.timer_gen + 1;
            let gen = r.timer_gen in
            Marlin_obs.Sink.timer_armed r.obs ~view:(P.current_view r.proto)
              ~after:d ~cause:(C.timer_cause_label cause);
            Sim.schedule_at t.sim ~time:(finish +. d) (fun () ->
                if (not r.crashed) && gen = r.timer_gen then begin
                  Marlin_obs.Sink.timer_fired r.obs
                    ~view:(P.current_view r.proto)
                    ~cause:(C.timer_cause_label cause);
                  let view_before = P.current_view r.proto in
                  let start = Float.max (Sim.now t.sim) r.cpu_free in
                  let actions = P.on_view_timeout r.proto in
                  if P.current_view r.proto > view_before then begin
                    if t.vc_start = None then t.vc_start <- Some (Sim.now t.sim);
                    apply_replica_actions t r ~start actions;
                    relay_pending t r
                  end
                  else apply_replica_actions t r ~start actions
                end)
        | C.Commit _ -> ())
      actions;
    (* every replica replies (clients complete on f+1 matching replies,
       as in the paper, and survive any f crashes among the repliers) *)
    List.iter (reply t r ~earliest:finish) commits

  and handle_replica t (r : replica) ~src (m : Message.t) =
    if not r.crashed then begin
      let start = Float.max (Sim.now t.sim) r.cpu_free in
      match m.Message.payload with
      | Message.Client_op op -> (
          let result = Mempool.add r.mempool op in
          Marlin_obs.Sink.mempool_admission r.obs
            (match result with
            | Mempool.Admitted -> `Admitted
            | Mempool.Duplicate -> `Duplicate
            | Mempool.Rejected Mempool.Pool_full -> `Rejected_full
            | Mempool.Rejected Mempool.Per_client_cap -> `Rejected_client_cap)
            ~occupancy:(Mempool.occupancy r.mempool);
          match result with
          | Mempool.Admitted ->
              (match t.open_loop with
              | Some os ->
                  let occ = Mempool.occupancy r.mempool in
                  if occ > os.peak_occ then os.peak_occ <- occ
              | None -> ());
              if P.is_leader r.proto then
                apply_replica_actions t r ~start (P.on_new_payload r.proto)
          | Mempool.Duplicate ->
              if
                Mempool.is_committed r.mempool op
                && op.Operation.client < t.reply_clients
              then
                (* a retransmission of an operation we already executed:
                   re-send the reply the client evidently missed *)
                reply t r ~earliest:start op
          | Mempool.Rejected _ -> (
              (* a drop the submitting generator would observe: account it
                 (relayed copies, src < n, leave the op pooled at the
                 contact, so they are not client-visible drops) *)
              match t.open_loop with
              | Some os when src >= t.params.n ->
                  os.ingress_rejected <- os.ingress_rejected + 1;
                  Pair_tbl.remove os.inflight op.client op.seq
              | _ -> ()))
      | _ ->
          let view_before = P.current_view r.proto in
          let actions = P.on_message r.proto m in
          (match m.Message.payload with
          | Message.Pre_prepare _ -> t.pre_prepare_seen <- true
          | _ -> ());
          apply_replica_actions t r ~start actions;
          if P.current_view r.proto > view_before then relay_pending t r
    end

  (* After a view change, operations stranded at this replica — pooled or
     batched into blocks the old view orphaned — must be re-proposed and
     reach the new leader. *)
  and relay_pending t (r : replica) =
    Mempool.requeue_taken r.mempool;
    if P.is_leader r.proto then
      apply_replica_actions t r
        ~start:(Float.max (Sim.now t.sim) r.cpu_free)
        (P.on_new_payload r.proto)
    else begin
      let leader = P.current_view r.proto mod t.params.n in
      if leader <> r.id then
        List.iter
          (fun op ->
            send t ~earliest:r.cpu_free ~src:r.id ~dst:leader
              (Message.make ~sender:r.id ~view:0 (Message.Client_op op)))
          (Mempool.snapshot r.mempool)
    end

  (* ---------- open-loop sources ---------- *)

  (* One arrival: draw a client key, shed at the source if the contact
     replica signals backpressure (the admission-control feedback loop),
     otherwise put the op on the wire; then schedule the next arrival.
     Arrivals keep coming whatever the cluster does — that is the point. *)
  let rec source_fire t (os : open_state) (s : source) =
    let now = Sim.now t.sim in
    os.generated <- os.generated + 1;
    let client = Rng.int s.s_rng os.key_space in
    (* interleaved seqs keep (client, seq) globally unique across sources
       without any shared counter *)
    let seq = (s.s_next_seq * os.nsources) + s.s_index in
    s.s_next_seq <- s.s_next_seq + 1;
    let contact = s.s_index mod t.params.n in
    if Mempool.backpressure t.replicas.(contact).mempool then begin
      os.shed <- os.shed + 1;
      match t.params.obs with
      | None -> ()
      | Some run -> (
          match Marlin_obs.Run.timeseries run with
          | None -> ()
          | Some ts -> Marlin_obs.Timeseries.note_shed ts ~time:now)
    end
    else begin
      os.sent <- os.sent + 1;
      let op = Operation.make ~client ~seq ~body:"" in
      Pair_tbl.replace os.inflight client seq now;
      send t ~earliest:now ~src:s.s_endpoint ~dst:contact
        (Message.make ~sender:s.s_endpoint ~view:0 (Message.Client_op op))
    end;
    let next = Arrival.Sampler.next s.s_sampler ~now in
    Sim.schedule_at t.sim ~time:next (fun () -> source_fire t os s)

  (* ---------- relay: ops reach the leader ---------- *)

  (* A non-leader holding fresh ops forwards them to the current leader.
     Cheapest faithful model: when a replica's mempool gains an op and it
     is not the leader, it relays the op message once. *)
  let handle_replica_with_relay t r ~src (m : Message.t) =
    (if not r.crashed then
       match m.Message.payload with
       | Message.Client_op op when src >= t.params.n ->
           (* only relay ops arriving directly from clients *)
           if not (P.is_leader r.proto) then begin
             let leader = P.current_view r.proto mod t.params.n in
             if leader <> r.id then
               send t ~earliest:(Sim.now t.sim) ~src:r.id ~dst:leader
                 (Message.make ~sender:r.id ~view:0 (Message.Client_op op))
           end
       | _ -> ());
    handle_replica t r ~src m

  (* ---------- construction ---------- *)

  (* [n], [f] and the timeouts are checked by [C.Config.make], once per
     replica; the workload and mempool limits by their constructors. *)
  let validate params =
    let reject field need =
      invalid_arg (Printf.sprintf "Cluster.create: %s must be %s" field need)
    in
    if params.batch_max < 1 then reject "batch_max" ">= 1";
    if params.op_size < 0 then reject "op_size" ">= 0";
    if params.reply_size < 0 then reject "reply_size" ">= 0";
    match params.rotation with
    | Some period when not (Float.is_finite period && period > 0.) ->
        reject "rotation" "finite and > 0"
    | Some _ | None -> ()

  let create params =
    validate params;
    let keychain = Marlin_crypto.Keychain.create ~n:params.n () in
    let sim = Sim.create () in
    let rng = Rng.create ~seed:params.seed in
    let extra_endpoints = Workload.endpoints params.workload in
    let net =
      Netsim.create sim (Rng.split rng) Netsim.default_config
        ~endpoints:(params.n + extra_endpoints)
    in
    let sig_bytes =
      Cost_model.combined_size params.cost_model ~n:params.n
        ~shares:(params.n - params.f)
    in
    Netsim.set_obs net params.obs;
    let make_replica id =
      let mempool = Mempool.create ~config:params.mempool () in
      let obs =
        match params.obs with
        | None -> Marlin_obs.Sink.none
        | Some run ->
            Marlin_obs.Run.handle run ~clock:(fun () -> Sim.now sim) ~replica:id
      in
      let cfg =
        C.Config.make ~id ~n:params.n ~f:params.f ~keychain
          ~cost:params.cost_model
          ~get_batch:(fun () ->
            Batch.of_list (Mempool.take mempool ~max:params.batch_max))
          ~has_pending:(fun () -> Mempool.pending mempool > 0)
          ~base_timeout:params.base_timeout ~max_timeout:params.max_timeout
          ~obs ()
      in
      {
        id;
        proto = P.create cfg;
        obs;
        mempool;
        disk = Sim_disk.create Sim_disk.default_config;
        peers =
          Array.init (params.n - 1) (fun i -> if i < id then i else i + 1);
        cpu_free = 0.;
        timer_gen = 0;
        crashed = false;
        executed = 0;
        commit_log = [];
      }
    in
    let make_client index =
      {
        endpoint = params.n + index;
        index;
        next_seq = 0;
        outstanding = None;
        submit_time = 0.;
        repliers = 0;
        completion_gen = 0;
        completed = [];
      }
    in
    let open_loop =
      match params.workload with
      | Workload.Closed_loop _ -> None
      | Workload.Open_loop { arrival; key_space; sources } ->
          (* sources jointly offer the workload's rate; each owns split
             streams for arrivals and key draws, so adding a source never
             perturbs another's trajectory *)
          let per_source =
            Arrival.scale arrival ~by:(1. /. float_of_int sources)
          in
          Some
            {
              key_space;
              nsources = sources;
              srcs =
                Array.init sources (fun i ->
                    let s_rng = Rng.split rng in
                    {
                      s_endpoint = params.n + i;
                      s_index = i;
                      s_rng;
                      s_sampler =
                        Arrival.Sampler.create per_source ~rng:(Rng.split rng);
                      s_next_seq = 0;
                    });
              inflight = Pair_tbl.create ~dummy:0. 256;
              lat = Stats.Reservoir.create ~capacity:8192 ();
              generated = 0;
              sent = 0;
              shed = 0;
              ingress_rejected = 0;
              completed_ops = 0;
              peak_occ = 0;
              base_generated = 0;
              base_sent = 0;
              base_shed = 0;
              base_rejected = 0;
              base_completed = 0;
            }
    in
    let reply_clients = Workload.closed_clients params.workload in
    let t =
      {
        params;
        sim;
        net;
        rng;
        replicas = Array.init params.n make_replica;
        clients = Array.init reply_clients make_client;
        reply_clients;
        reply_at = [||];
        reply_quorum_at = Array.make reply_clients infinity;
        select_buf = Array.make params.n infinity;
        open_loop;
        sig_bytes;
        started = false;
        vc_start = None;
        pre_prepare_seen = false;
      }
    in
    Array.iter
      (fun r -> Netsim.register net ~id:r.id (handle_replica_with_relay t r))
      t.replicas;
    (* clients and open-loop sources register no handler: nothing is
       delivered to them (replies are posted, see [reply]) *)
    t

  let start t =
    if not t.started then begin
      t.started <- true;
      t.reply_at <- Array.make (t.reply_clients * t.params.n) infinity;
      Array.iter
        (fun r ->
          Sim.schedule_at t.sim ~time:0. (fun () ->
              if not r.crashed then
                apply_replica_actions t r ~start:0. (P.on_start r.proto)))
        t.replicas;
      (* Stagger client start-up within the first 50 ms. *)
      Array.iter
        (fun cl ->
          let offset = Rng.float t.rng 0.05 in
          Sim.schedule_at t.sim ~time:offset (fun () -> submit_op t cl))
        t.clients;
      (* Open-loop sources: the first arrival of each is an honest draw
         from its own process — no stagger needed. *)
      (match t.open_loop with
      | None -> ()
      | Some os ->
          Array.iter
            (fun s ->
              let first = Arrival.Sampler.next s.s_sampler ~now:0. in
              Sim.schedule_at t.sim ~time:first (fun () -> source_fire t os s))
            os.srcs);
      (* Rotating-leader mode: force a view change on every live replica
         at each rotation boundary. *)
      match t.params.rotation with
      | None -> ()
      | Some period ->
          let rec rotate k =
            Sim.schedule_at t.sim ~time:(float_of_int k *. period) (fun () ->
                Array.iter
                  (fun r ->
                    if not r.crashed then begin
                      let start = Float.max (Sim.now t.sim) r.cpu_free in
                      apply_replica_actions t r ~start
                        (P.force_view_change r.proto);
                      relay_pending t r
                    end)
                  t.replicas;
                rotate (k + 1))
          in
          rotate 1
    end

  let run t ~until =
    start t;
    Sim.run ~until t.sim

  let crash_now t id =
    t.replicas.(id).crashed <- true;
    Netsim.Fault.crash t.net ~id

  let crash t ~at id = Sim.schedule_at t.sim ~time:at (fun () -> crash_now t id)

  (* A recovered replica rejoins with its pre-crash state and forces a view
     change to announce itself: followers at a higher view answer with
     their own view-change messages and fresh QCs, and the protocol's
     view-synchronisation path fast-forwards it to the live view. *)
  let recover_now t id =
    let r = t.replicas.(id) in
    if r.crashed then begin
      r.crashed <- false;
      Netsim.Fault.recover t.net ~id;
      r.cpu_free <- Float.max r.cpu_free (Sim.now t.sim);
      apply_replica_actions t r ~start:r.cpu_free (P.force_view_change r.proto);
      relay_pending t r
    end

  let recover t ~at id =
    Sim.schedule_at t.sim ~time:at (fun () -> recover_now t id)

  let apply_scenario ?on_byzantine t (sc : Scenario.t) =
    if Scenario.has_byzantine sc && Option.is_none on_byzantine then
      invalid_arg
        "Cluster.apply_scenario: scenario has Byzantine steps but no \
         ~on_byzantine handler (wrap the protocol with \
         Marlin_faults.Byzantine.wrap, as Experiment.run does)";
    let execute (step : Scenario.step) =
      (match t.params.obs with
      | None -> ()
      | Some run ->
          Marlin_obs.Run.fault_injected run ~time:(Sim.now t.sim)
            ~target:(Scenario.event_target step.Scenario.event)
            ~label:(Scenario.event_label step.Scenario.event) ());
      match step.Scenario.event with
      | Scenario.Crash id -> crash_now t id
      | Scenario.Recover id -> recover_now t id
      | Scenario.Partition groups -> Netsim.Fault.partition t.net groups
      | Scenario.Heal -> Netsim.Fault.heal t.net
      | Scenario.Delay_links extra -> Netsim.Fault.delay_links t.net ~extra
      | Scenario.Drop_fraction p -> Netsim.Fault.drop_fraction t.net ~p
      | Scenario.Duplicate p -> Netsim.Fault.duplicate t.net ~p
      | Scenario.Byzantine (id, b) -> (
          match on_byzantine with Some f -> f id b | None -> ())
    in
    List.iter
      (fun (step : Scenario.step) ->
        (* time-0 steps run now, before the simulation starts, so they are
           in force for the very first protocol callback *)
        if step.Scenario.at <= 0. then execute step
        else Sim.schedule_at t.sim ~time:step.Scenario.at (fun () -> execute step))
      sc.Scenario.steps

  (* ---------- measurements ---------- *)

  let committed_ops_in t ~replica ~since ~until =
    List.fold_left
      (fun acc (time, ops) ->
        if time >= since && time <= until then acc + ops else acc)
      0
      t.replicas.(replica).commit_log

  let latencies_in t ~since ~until =
    Array.to_list t.clients
    |> List.concat_map (fun cl ->
           List.filter_map
             (fun (time, latency) ->
               if time >= since && time <= until then Some latency else None)
             cl.completed)

  let total_executed t ~replica = t.replicas.(replica).executed

  let first_commit_after t ~replica instant =
    List.fold_left
      (fun acc (time, _) ->
        if time > instant then
          match acc with
          | None -> Some time
          | Some best -> Some (Float.min best time)
        else acc)
      None
      t.replicas.(replica).commit_log

  let view_change_start t = t.vc_start
  let pre_prepare_seen t = t.pre_prepare_seen

  let open_state_exn t =
    match t.open_loop with
    | Some os -> os
    | None ->
        invalid_arg
          "Cluster: open-loop measurement on a closed-loop workload (use \
           Workload.open_loop in params)"

  (* Drop warmup: zero the window so [open_loop_stats] measures steady
     state only (generated/sent/... become deltas from this instant; the
     latency reservoir and occupancy high-water mark restart). *)
  let open_loop_reset_window t =
    let os = open_state_exn t in
    os.base_generated <- os.generated;
    os.base_sent <- os.sent;
    os.base_shed <- os.shed;
    os.base_rejected <- os.ingress_rejected;
    os.base_completed <- os.completed_ops;
    os.peak_occ <- 0;
    Stats.Reservoir.clear os.lat

  let open_loop_stats t =
    let os = open_state_exn t in
    {
      generated = os.generated - os.base_generated;
      sent = os.sent - os.base_sent;
      shed = os.shed - os.base_shed;
      rejected = os.ingress_rejected - os.base_rejected;
      completed = os.completed_ops - os.base_completed;
      latency = Stats.Reservoir.summarize os.lat;
      peak_occupancy = os.peak_occ;
      inflight = Pair_tbl.length os.inflight;
    }

  let mempool_stats t =
    Array.fold_left
      (fun acc r ->
        let s = Mempool.stats r.mempool in
        {
          Mempool.admitted = acc.Mempool.admitted + s.Mempool.admitted;
          duplicates = acc.Mempool.duplicates + s.Mempool.duplicates;
          rejected_full = acc.Mempool.rejected_full + s.Mempool.rejected_full;
          rejected_client_cap =
            acc.Mempool.rejected_client_cap + s.Mempool.rejected_client_cap;
          peak_occupancy =
            Int.max acc.Mempool.peak_occupancy s.Mempool.peak_occupancy;
        })
      {
        Mempool.admitted = 0;
        duplicates = 0;
        rejected_full = 0;
        rejected_client_cap = 0;
        peak_occupancy = 0;
      }
      t.replicas

  let check_agreement t =
    Array.to_list t.replicas
    |> List.filter_map (fun r ->
           if r.crashed then None else Some (P.block_store r.proto))
    |> Block_store.agree
end
