(* A loopback cluster for protocol-level tests.

   Runs n protocol instances with synchronous FIFO message queues — no
   simulator, no timers (tests fire timeouts explicitly), full control over
   message delivery. Fault injection: crash replicas, filter links, or
   intercept messages. This is how the adversarial schedules of Figure 2
   are reproduced deterministically.

   The harness owns delivery only: the inboxes, [transform], explicit
   timeouts and a delivery budget. Each replica's operations live in the
   runtime's own [Mempool], and agreement is [Block_store.agree], so the
   protocols are tested against the code the simulated cluster runs. *)

open Marlin_types
module C = Marlin_core.Consensus_intf
module Mempool = Marlin_runtime.Mempool

(* Deliveries one cluster may make over its lifetime: four times the most
   any passing run of the harness suites needs, so a message storm fails
   with its schedule printed instead of running for hours. *)
let delivery_budget = 50_000

let ops_of blocks = List.concat_map (fun b -> Batch.to_list b.Block.payload) blocks

module Make (P : C.PROTOCOL) = struct
  type node = {
    id : int;
    proto : P.t;
    mempool : Mempool.t;
    inbox : (int * Message.t) Queue.t; (* (src, message) *)
    mutable crashed : bool;
    mutable last_timer : float;
  }

  type t = {
    nodes : node array;
    keychain : Marlin_crypto.Keychain.t;
    mutable transform : src:int -> dst:int -> Message.t -> Message.t option;
        (* None drops the message; Some replaces it (Byzantine forgery). *)
    mutable trace : (int * int * Message.t) list; (* (src, dst, m), newest first *)
    mutable delivered : int;
  }

  let batch_max = 16

  let create ?(n = 4) ?(f = 1) () =
    let keychain = Marlin_crypto.Keychain.create ~n () in
    let make_node id =
      let mempool = Mempool.create () in
      let cfg =
        C.Config.make ~id ~n ~f ~keychain
          ~get_batch:(fun () -> Batch.of_list (Mempool.take mempool ~max:batch_max))
          ~has_pending:(fun () -> Mempool.pending mempool > 0)
          ~base_timeout:1.0 ~max_timeout:60.0 ()
      in
      {
        id;
        proto = P.create cfg;
        mempool;
        inbox = Queue.create ();
        crashed = false;
        last_timer = 0.;
      }
    in
    {
      nodes = Array.init n make_node;
      keychain;
      transform = (fun ~src:_ ~dst:_ m -> Some m);
      trace = [];
      delivered = 0;
    }

  let node t id = t.nodes.(id)
  let proto t id = t.nodes.(id).proto
  let keychain t = t.keychain
  let crash t id = t.nodes.(id).crashed <- true
  let live t = List.filter (fun node -> not node.crashed) (Array.to_list t.nodes)

  let set_filter t filter =
    t.transform <- (fun ~src ~dst m -> if filter ~src ~dst m then Some m else None)

  let set_transform t transform = t.transform <- transform
  let clear_filter t = t.transform <- (fun ~src:_ ~dst:_ m -> Some m)

  let enqueue t ~src ~dst m =
    if (not t.nodes.(src).crashed) && not t.nodes.(dst).crashed then
      match t.transform ~src ~dst m with
      | None -> ()
      | Some m ->
          t.trace <- (src, dst, m) :: t.trace;
          Queue.push (src, m) t.nodes.(dst).inbox

  (* Deliver a hand-crafted message, bypassing transforms (adversary). *)
  let inject t ~src ~dst m =
    if not t.nodes.(dst).crashed then Queue.push (src, m) t.nodes.(dst).inbox

  let apply_actions t (node : node) actions =
    List.iter
      (function
        | C.Send { dst; msg } -> enqueue t ~src:node.id ~dst msg
        | C.Broadcast msg ->
            Array.iter
              (fun other ->
                if other.id <> node.id then enqueue t ~src:node.id ~dst:other.id msg)
              t.nodes
        | C.Commit blocks -> ignore (Mempool.mark_committed node.mempool (ops_of blocks))
        | C.Timer { duration; cause = _ } -> node.last_timer <- duration)
      actions

  (* As in the simulated cluster, operations batched into blocks that a
     view change orphans return to the pool when the node's view advances. *)
  let invoke t (node : node) f =
    let view_before = P.current_view node.proto in
    let actions = f node.proto in
    if P.current_view node.proto > view_before then Mempool.requeue_taken node.mempool;
    apply_actions t node actions

  (* Deliver queued messages round-robin until every inbox is empty. *)
  let run t =
    let busy = ref true in
    while !busy do
      busy := false;
      Array.iter
        (fun node ->
          if (not node.crashed) && not (Queue.is_empty node.inbox) then begin
            busy := true;
            t.delivered <- t.delivered + 1;
            if t.delivered > delivery_budget then
              failwith
                (Printf.sprintf "harness: %d deliveries exceed the budget of %d"
                   t.delivered delivery_budget);
            let _src, m = Queue.pop node.inbox in
            invoke t node (fun p -> P.on_message p m)
          end)
        t.nodes
    done

  let start t =
    List.iter (fun node -> invoke t node P.on_start) (live t);
    run t

  (* Add an operation to every replica's mempool (clients broadcast), then
     poke the protocols. A known operation is a duplicate and stays out. *)
  let submit t op =
    Array.iter (fun node -> ignore (Mempool.add node.mempool op)) t.nodes;
    List.iter (fun node -> invoke t node P.on_new_payload) (live t);
    run t

  let submit_ops t ~client ~count =
    for seq = 1 to count do
      submit t (Operation.make ~client ~seq ~body:(Printf.sprintf "op-%d-%d" client seq))
    done

  let timeout t id =
    let node = t.nodes.(id) in
    if not node.crashed then begin
      invoke t node P.on_view_timeout;
      run t
    end

  let timeout_all t =
    List.iter (fun node -> invoke t node P.on_view_timeout) (live t);
    run t

  (* Fire view timers the way real clocks fire them after GST, until
     [until ()] holds or 40 rounds have passed: each round, the live
     replicas in the lowest view time out, in id order. Lockstep pumping
     would keep view offsets forever, which bounded timers cannot do.
     Returns the rounds fired. *)
  let pump_timeouts t ~until =
    let rounds = ref 0 in
    while (not (until ())) && !rounds < 40 do
      incr rounds;
      let min_view =
        List.fold_left (fun acc node -> min acc (P.current_view node.proto)) max_int (live t)
      in
      List.iter
        (fun node -> if P.current_view node.proto = min_view then timeout t node.id)
        (live t)
    done;
    !rounds

  (* ---------- Figure 2 (Section IV-B), in two steps ---------- *)

  (* b1 commits; then b2's prepare certificate from leader 0 reaches only
     [locked] (nobody on [None]), which alone locks qc(b2). *)
  let hide_lock t ~locked =
    submit t (Operation.make ~client:1 ~seq:1 ~body:"b1");
    set_filter t (fun ~src ~dst m ->
        match m.Message.payload with
        | Message.Phase_cert qc
          when src = 0
               && Qc.phase_equal qc.Qc.phase Qc.Prepare
               && qc.Qc.block.Qc.height = 2 ->
            Option.equal Int.equal locked (Some dst)
        | _ -> true);
    submit t (Operation.make ~client:1 ~seq:2 ~body:"b2");
    clear_filter t

  (* The view change to replica 1 gets an unsafe snapshot: replica 2's
     VIEW-CHANGE (NEW-VIEW, in the strawman) to it is late (dropped),
     Byzantine replica 0 forges its own to advertise only qc(b1), and
     replica 0 casts no votes. Returns qc(b1), replica 1's high QC. *)
  let unsafe_snapshot t =
    let r1 = proto t 1 in
    let qc_b1 =
      match P.high_qc r1 with
      | High_qc.Single qc -> qc
      | High_qc.Paired _ -> failwith "unsafe_snapshot: replica 1 holds a paired high QC"
    in
    let b1 =
      match Block_store.find (P.block_store r1) qc_b1.Qc.block.Qc.digest with
      | Some b -> Block.summary b
      | None -> failwith "unsafe_snapshot: b1 missing from replica 1's store"
    in
    set_transform t (fun ~src ~dst m ->
        let view = m.Message.view in
        let forged payload = Some (Message.make ~sender:0 ~view payload) in
        match m.Message.payload with
        | (Message.View_change _ | Message.New_view _) when src = 2 && dst = 1 -> None
        | Message.New_view _ when src = 0 && dst = 1 ->
            forged (Message.New_view { justify = qc_b1 })
        | Message.View_change _ when src = 0 && dst = 1 ->
            let parsig =
              Qc.sign_vote t.keychain ~signer:0 ~phase:Qc.Prepare ~view b1.Block.b_ref
            in
            forged
              (Message.View_change { last = b1; justify = High_qc.Single qc_b1; parsig })
        | Message.Vote _ when src = 0 -> None
        | _ -> Some m);
    qc_b1

  (* ---------- invariant checks ---------- *)

  (* No two correct replicas commit conflicting blocks. *)
  let check_safety t =
    Block_store.agree (List.map (fun node -> P.block_store node.proto) (live t))

  (* The operations a replica has executed: the first commit of each
     (client, seq) in commit order. An operation can appear in two
     committed blocks (re-proposed after a view change while the original
     block survived); [Mempool.mark_committed] keeps the first, as the
     simulated cluster's execution does. *)
  let committed_ops t id =
    let store = P.block_store (proto t id) in
    let genesis = Block.digest Block.genesis in
    match Block_store.chain_to store (Block_store.last_committed store) ~above:genesis with
    | Some blocks -> Mempool.mark_committed (Mempool.create ()) (ops_of blocks)
    | None -> failwith "committed_ops: the committed chain does not reach genesis"

  let min_committed t =
    List.fold_left (fun acc node -> min acc (P.committed_count node.proto)) max_int
      (live t)

  let max_committed t =
    Array.fold_left (fun acc node -> max acc (P.committed_count node.proto)) 0 t.nodes
end
