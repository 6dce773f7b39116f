(* Calibration loops: host nanoseconds per call of the library primitives
   the simulation leans on, measured at the workload's own sizes (its
   quorum, its batch size, its event-queue depth). Multiplying the
   simulation's operation counts by these gives a cost floor per layer to
   set against the traced self times. *)

open Marlin_types
module Keychain = Marlin_crypto.Keychain
module Event_queue = Marlin_sim.Event_queue

(* Median over 7 rounds of the mean ns per call, with the iteration count
   chosen so one round takes about 4 ms. *)
let ns_per_call f =
  let rounds = 7 and round_ns = 4_000_000 in
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  let once = max 1 (Spans.now_ns () - t0) in
  let iters = max 1 (round_ns / once) in
  let round () =
    let t0 = Spans.now_ns () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    float_of_int (Spans.now_ns () - t0) /. float_of_int iters
  in
  let samples = List.init rounds (fun _ -> round ()) in
  Marlin_analysis.Stats.median samples

type t = {
  partial_verify_ns : float;
  combine_ns : float;
  qc_verify_ns : float;
  block_digest_us : float;
  encode_proposal_us : float;
  event_queue_ns : float;
}

let block_ref =
  Block.to_ref
    (Block.make_normal ~parent:Block.genesis ~view:1 ~payload:Batch.empty
       ~justify:Block.J_genesis)

let crypto ~n ~quorum =
  let kc = Keychain.create ~n () in
  let vote signer = Qc.sign_vote kc ~signer ~phase:Qc.Prepare ~view:1 block_ref in
  let partials = List.init quorum vote in
  let combine () =
    Qc.combine kc ~threshold:quorum ~phase:Qc.Prepare ~view:1 block_ref partials
  in
  let qc =
    match combine () with Ok qc -> qc | Error e -> failwith ("calib: " ^ e)
  in
  let partial = vote 0 in
  ( ns_per_call (fun () ->
        Qc.verify_vote kc ~phase:Qc.Prepare ~view:1 block_ref partial),
    ns_per_call combine,
    ns_per_call (fun () -> Qc.verify kc ~threshold:quorum qc) )

(* A block of [batch] operations with 150-byte bodies (the paper's op
   size); batch and block digests are cached, so each call rebuilds both. *)
let types ~batch =
  let ops =
    List.init batch (fun i ->
        Operation.make ~client:i ~seq:i ~body:(String.make 150 'x'))
  in
  let block () =
    Block.make_normal ~parent:Block.genesis ~view:1 ~payload:(Batch.of_list ops)
      ~justify:Block.J_genesis
  in
  let digest_ns = ns_per_call (fun () -> Block.digest (block ())) in
  let proposal =
    Message.make ~sender:0 ~view:1
      (Message.Propose { block = block (); justify = High_qc.genesis })
  in
  let encode_ns = ns_per_call (fun () -> Message.encode_string proposal) in
  (digest_ns /. 1e3, encode_ns /. 1e3)

(* One push and one pop against a queue holding [depth] events spread
   over a second of simulated time, the shape the simulator runs at. *)
let event_queue ~depth =
  let q = Event_queue.create () in
  let state = ref 12345 in
  let next_time () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    float_of_int !state /. float_of_int 0x40000000
  in
  for i = 1 to max 1 depth do
    Event_queue.push q ~time:(next_time ()) i
  done;
  ns_per_call (fun () ->
      match Event_queue.pop q with
      | Some (time, v) -> Event_queue.push q ~time:(time +. next_time ()) v
      | None -> ())

(* The host reference: a fixed kernel that calls nothing in the repository,
   a heap sort of 200k fixed integers in a buffer allocated once. The
   shared host's speed drifts by tens of percent over minutes; timed next
   to every operation, this kernel drifts with it, so operation time over
   kernel time cancels the drift while any change to the simulator still
   moves it. It allocates nothing, so the state the simulation leaves in
   the heap cannot change its time: an allocating kernel (hashtable
   inserts and a list sort) spread twice to four times as much over ten
   processes. *)
let ref_input = Array.init 200_000 (fun i -> (i * 7919) land 0xfffff)
let ref_buffer = Array.make 200_000 0

let host_ref_ns () =
  let t0 = Spans.now_ns () in
  Array.blit ref_input 0 ref_buffer 0 (Array.length ref_input);
  Array.sort Int.compare ref_buffer;
  ignore (Sys.opaque_identity ref_buffer.(0));
  Spans.now_ns () - t0

let measure ~n ~quorum ~batch ~depth =
  let partial_verify_ns, combine_ns, qc_verify_ns = crypto ~n ~quorum in
  let block_digest_us, encode_proposal_us = types ~batch in
  {
    partial_verify_ns;
    combine_ns;
    qc_verify_ns;
    block_digest_us;
    encode_proposal_us;
    event_queue_ns = event_queue ~depth;
  }
