(* Bechamel micro-benchmarks: real CPU costs of the substrate primitives
   (hashing, the simulated signatures, vote collection, the codec and
   message accounting, the event queue, the mempool and its (client, seq)
   tables). These are measurements of THIS implementation; the
   simulator's protocol-level CPU accounting instead uses the calibrated
   Cost_model figures for real ECDSA/BLS, as explained in DESIGN.md. *)

open Bechamel
open Toolkit
module Sha256 = Marlin_crypto.Sha256
module Hmac = Marlin_crypto.Hmac
module Keychain = Marlin_crypto.Keychain
module Threshold = Marlin_crypto.Threshold
open Marlin_types

let kc = Keychain.create ~n:31 ()
let payload_1k = String.make 1024 'p'
let payload_64k = String.make 65536 'q'

let sample_block =
  let qc = Qc.genesis in
  Block.make_normal ~parent:Block.genesis ~view:1
    ~payload:(Batch.of_list (List.init 64 (fun i ->
        Operation.make ~client:1 ~seq:i ~body:(String.make 150 'x'))))
    ~justify:(Block.J_qc qc)

let sample_msg =
  Message.make ~sender:0 ~view:1
    (Message.Propose { block = sample_block; justify = High_qc.genesis })

let encoded_msg = Message.encode_string sample_msg

let partials =
  List.init 21 (fun i -> Threshold.sign kc ~signer:i "digest-to-certify")

(* The hot call shapes of a run: a vote-sized MAC under a prepared replica
   key, and a QC check at n = 256 with an n - f = 171 signer list. *)
let payload_64 = String.make 64 'v'
let kc_256 = Keychain.create ~n:256 ()

let qc_256 =
  let msg = "digest-to-certify" in
  match
    Threshold.combine kc_256 ~threshold:171 msg
      (List.init 171 (fun i -> Threshold.sign kc_256 ~signer:i msg))
  with
  | Ok t -> t
  | Error e -> failwith e

(* The 171 shares of one prepare vote at n = 256, signed through
   [kc_256]'s MAC memo as a run's votes are, so checking them hits it. *)
let vote_ref = Block.to_ref Block.genesis

let votes_256 =
  List.init 171 (fun i ->
      Qc.sign_vote kc_256 ~signer:i ~phase:Qc.Prepare ~view:1 vote_ref)

(* The leader's side of one phase: a fresh collector takes the quorum's
   shares and forms the QC. At n = 256 these are [votes_256], a happy
   path's prepare quorum; at n = 32 the 22 shares of a PBFT-sized
   quorum. *)
let vote_collection kc ~quorum votes =
  let module Core = Marlin_core in
  let auth =
    Core.Auth.create ~keychain:kc
      ~meter:(Core.Cpu_meter.create Marlin_crypto.Cost_model.ecdsa_group)
      ~quorum
  in
  fun () ->
    let vc = Core.Vote_collector.create auth in
    List.iter
      (fun share ->
        ignore
          (Core.Vote_collector.add vc ~phase:Qc.Prepare ~view:1 ~block:vote_ref share))
      votes

let kc_32 = Keychain.create ~n:32 ()

let votes_32 =
  List.init 22 (fun i ->
      Qc.sign_vote kc_32 ~signer:i ~phase:Qc.Prepare ~view:1 vote_ref)

let sig_bytes_256 =
  Marlin_crypto.Cost_model.(combined_size ecdsa_group ~n:256 ~shares:171)

(* What the network layer asks of each PROPOSE it sends at n = 256: the
   authenticator count and the accounting size of a proposal whose block
   justify is a 171-signer QC, shipped beside it as the sender's highQC,
   one shared certificate as in a run. *)
let propose_256 =
  let qc =
    match
      Qc.combine kc_256 ~threshold:171 ~phase:Qc.Prepare ~view:1 vote_ref votes_256
    with
    | Ok qc -> qc
    | Error e -> failwith e
  in
  let high = High_qc.Single qc in
  Message.make ~sender:1 ~view:2
    (Message.Propose
       {
         block =
           Block.make_normal ~parent:Block.genesis ~view:2
             ~payload:sample_block.Block.payload ~justify:(High_qc.to_justify high);
         justify = high;
       })

(* Distinct inputs for "sim-sign" and the "first check" rows: one more
   message than the keychain's memos hold (its MAC memo and its
   certificate memo share [Keychain.memo_capacity]), visited in turn, so
   every sign or check misses both memos and computes its MACs. The
   "repeat check" rows check one input over and over, as the n replicas
   of a cluster do: the combine row times MAC-memo hits, and the verify
   row a certificate-memo hit, which computes no MAC at all. Built when
   the micro-benchmarks run, not at start-up. *)
let first_check_inputs () =
  let count = Keychain.memo_capacity + 1 in
  let msg k = Printf.sprintf "digest-to-certify-%d" k in
  let combine_inputs =
    Array.init count (fun k ->
        let msg = msg k in
        (msg, List.init 21 (fun i -> Threshold.sign kc ~signer:i msg)))
  in
  let verify_inputs =
    Array.init count (fun k ->
        let msg = msg k in
        match
          Threshold.combine kc_256 ~threshold:171 msg
            (List.init 171 (fun i -> Threshold.sign kc_256 ~signer:i msg))
        with
        | Ok t -> (msg, { t with Threshold.signers = qc_256.Threshold.signers })
        | Error e -> failwith e)
  in
  (Array.map fst combine_inputs, combine_inputs, verify_inputs)

(* A staged function that applies [f] to the inputs in turn. *)
let cycling inputs f =
  let k = ref 0 in
  Staged.stage (fun () ->
      let input = inputs.(!k) in
      k := if !k + 1 = Array.length inputs then 0 else !k + 1;
      f input)

(* The simulator's own queue shape (happy path at n = 256): ~13k pending
   events, most of them message deliveries ~40 ms ahead within 1 ms of
   jitter, the rest client retry timers ~9 s ahead. Each op pops the
   earliest event and schedules one relative to its time (a hold model),
   so the population stays at [pending] and near its steady-state mix;
   the queue is prefilled with that mix (deliveries over the next 41 ms,
   18% timers over the next 9 s). [pending] is 13k for happy-n256 and 7k
   for pbft-n32 (its peak pending count is about 7,080). [value i] is the
   i-th event's value: an int, or a closure as the simulator queues,
   which lives in the major heap once the queue is built, so moving it
   costs a GC write barrier. *)
let sim_shaped_queue ~pending value =
  let module Q = Marlin_sim.Event_queue in
  let rng = Marlin_sim.Rng.create ~seed:17 in
  let jitter () = Marlin_sim.Rng.float rng 0.001 in
  let delays =
    Array.init 4096 (fun i ->
        if i mod 1024 = 0 then 9.0 +. jitter () else 0.040 +. jitter ())
  in
  let q = Q.create () in
  for i = 0 to pending - 1 do
    let horizon = if i mod 100 < 18 then 9.001 else 0.041 in
    Q.push q ~time:(Marlin_sim.Rng.float rng horizon) (value i)
  done;
  let k = ref 0 in
  fun () ->
    match Q.pop q with
    | Some (time, v) ->
        incr k;
        Q.push q ~time:(time +. delays.(!k land 4095)) v
    | None -> assert false

(* The open-loop request path at openloop-n4's batch size: admit 2000
   fresh operations (uniform clients over 1M keys, unique seqs), take them
   as one batch and commit it. Committed keys stay in the pool, as they do
   in a run, so a fresh pool replaces the old one every 64 batches. Built
   when the micro-benchmarks run, like the inputs above. *)
let mempool_batches () =
  let module Mempool = Marlin_runtime.Mempool in
  let batch = 2000 and per_pool = 64 in
  let rng = Marlin_sim.Rng.create ~seed:23 in
  let ops =
    Array.init (batch * per_pool) (fun seq ->
        Operation.make ~client:(Marlin_sim.Rng.int rng 1_000_000) ~seq ~body:"")
  in
  let pool = ref (Mempool.create ()) and round = ref 0 in
  fun () ->
    if !round = per_pool then begin
      pool := Mempool.create ();
      round := 0
    end;
    for i = !round * batch to ((!round + 1) * batch) - 1 do
      ignore (Mempool.add !pool ops.(i))
    done;
    incr round;
    Mempool.mark_committed !pool (Mempool.take !pool ~max:batch)

(* The table under every (client, seq) lookup: insert 100k open-loop
   shaped keys, find each, remove each. The table is reused, so after the
   first run it is grown and the run measures steady-state probes. *)
let op_table () =
  let keys = 100_000 in
  let rng = Marlin_sim.Rng.create ~seed:29 in
  let clients = Array.init keys (fun _ -> Marlin_sim.Rng.int rng 1_000_000) in
  let tbl = Pair_tbl.create ~dummy:0 16 in
  fun () ->
    for seq = 0 to keys - 1 do
      Pair_tbl.replace tbl clients.(seq) seq seq
    done;
    let sum = ref 0 in
    for seq = 0 to keys - 1 do
      sum := !sum + Pair_tbl.find tbl clients.(seq) seq
    done;
    for seq = 0 to keys - 1 do
      Pair_tbl.remove tbl clients.(seq) seq
    done;
    !sum

let tests () =
  let sign_inputs, combine_inputs, verify_inputs = first_check_inputs () in
  [
    Test.make ~name:"sha256 1KiB" (Staged.stage (fun () -> Sha256.string payload_1k));
    Test.make ~name:"sha256 64KiB" (Staged.stage (fun () -> Sha256.string payload_64k));
    Test.make ~name:"hmac-sha256 1KiB"
      (Staged.stage (fun () -> Hmac.mac ~key:"k" payload_1k));
    Test.make ~name:"hmac-sha256 prepared 64 B"
      (Staged.stage (fun () ->
           Hmac.mac_prepared ~key:(Keychain.key kc 3) payload_64));
    Test.make ~name:"sim-sign"
      (cycling sign_inputs (fun msg -> Threshold.sign kc ~signer:3 msg));
    Test.make ~name:"threshold combine (21/31), first check"
      (cycling combine_inputs (fun (msg, partials) ->
           Threshold.combine kc ~threshold:21 msg partials));
    Test.make ~name:"threshold combine (21/31), repeat check"
      (Staged.stage (fun () ->
           Threshold.combine kc ~threshold:21 "digest-to-certify" partials));
    Test.make ~name:"threshold verify (171/256), first check"
      (cycling verify_inputs (fun (msg, qc) ->
           Threshold.verify kc_256 ~threshold:171 msg qc));
    Test.make ~name:"threshold verify (171/256), repeat check"
      (Staged.stage (fun () ->
           Threshold.verify kc_256 ~threshold:171 "digest-to-certify" qc_256));
    Test.make ~name:"vote collector: 171 shares to one QC, n=256"
      (Staged.stage (vote_collection kc_256 ~quorum:171 votes_256));
    Test.make ~name:"vote collector: 22 shares to one QC, n=32"
      (Staged.stage (vote_collection kc_32 ~quorum:22 votes_32));
    Test.make ~name:"PROPOSE authenticators + wire_size, n=256 justify"
      (Staged.stage (fun () ->
           Message.authenticators propose_256
           + Message.wire_size ~sig_bytes:sig_bytes_256 propose_256));
    Test.make ~name:"block digest (64 ops)"
      (Staged.stage (fun () ->
           (* defeat the cache: rebuild the block *)
           let b =
             Block.make_normal ~parent:Block.genesis ~view:1
               ~payload:sample_block.Block.payload ~justify:sample_block.Block.justify
           in
           Block.digest b));
    Test.make ~name:"message encode (64-op proposal)"
      (Staged.stage (fun () -> Message.encode_string sample_msg));
    Test.make ~name:"message decode"
      (Staged.stage (fun () -> Message.decode_string encoded_msg));
    Test.make ~name:"event queue push+pop x100"
      (Staged.stage (fun () ->
           let q = Marlin_sim.Event_queue.create () in
           for i = 0 to 99 do
             Marlin_sim.Event_queue.push q ~time:(float_of_int (i * 7919 mod 100)) i
           done;
           while not (Marlin_sim.Event_queue.is_empty q) do
             ignore (Marlin_sim.Event_queue.pop q)
           done));
    Test.make ~name:"event queue push+pop, 13k sim-shaped"
      (Staged.stage (sim_shaped_queue ~pending:13_000 Fun.id));
    Test.make ~name:"event queue push+pop, 13k sim-shaped, closure values"
      (Staged.stage
         (sim_shaped_queue ~pending:13_000 (fun i () -> ignore (Sys.opaque_identity i))));
    Test.make ~name:"event queue push+pop, 7k sim-shaped"
      (Staged.stage (sim_shaped_queue ~pending:7_000 Fun.id));
    Test.make ~name:"mempool add+take+commit, 2000-op batch"
      (Staged.stage (mempool_batches ()));
    Test.make ~name:"op table replace/find/remove, 100k keys"
      (Staged.stage (op_table ()));
  ]

(* Prints every estimate in name order (not hash-bucket order) and returns
   them as (name, ns per op). *)
let run () =
  Printf.printf "\n=== Micro-benchmarks (Bechamel; monotonic clock) ===\n%!";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      List.of_seq (Hashtbl.to_seq (Analyze.all ols instance results)))
    (tests ())
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] ->
             Printf.printf "%-54s %12.1f ns/op\n%!" name est;
             Some (name, est)
         | _ ->
             Printf.printf "%-54s (no estimate)\n%!" name;
             None)
