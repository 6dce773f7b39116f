(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section VI).

     dune exec bench/main.exe             -- all experiments, reduced scale
     dune exec bench/main.exe -- fig10a   -- one target
     dune exec bench/main.exe -- all --full   -- paper-scale parameters

   Absolute numbers differ from the paper (the substrate is a simulator
   calibrated to the testbed's 40 ms / 200 Mbps / ECDSA / LevelDB
   parameters, not the authors' cluster); the comparisons — who wins, by
   roughly what factor, where curves bend — are the reproduction target.
   Measured outputs are recorded in EXPERIMENTS.md. *)

module C = Marlin_core.Consensus_intf
module Cluster = Marlin_runtime.Cluster
module Mempool = Marlin_runtime.Mempool
module Experiment = Marlin_runtime.Experiment
module Stats = Marlin_analysis.Stats
module Complexity = Marlin_analysis.Complexity
module Workload = Marlin_workload.Workload
module Arrival = Marlin_workload.Arrival

(* ------------------------------------------------------------------ *)
(* Machine-readable output: --json FILE                                *)
(* ------------------------------------------------------------------ *)

(* Every target appends labelled records as it prints its tables; with
   --json FILE the collected records are written as one schema-versioned
   document. The committed regression baselines (bench/baselines/) are
   exactly such documents, and the regression gates read them back. *)
module Recorder = struct
  let schema = Test_support.Gate.schema
  let target = ref ""
  let set_target t = target := t

  (* newest first: (target, label, serialized data) *)
  let records : (string * string * string) list ref = ref []

  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let add ~label data = records := (!target, label, data) :: !records

  (* Targets whose --json output must be bit-identical across repeated
     runs (the smoke, load and attribution baselines) set this; the
     envelope then reports a fixed wall_seconds instead of the measured
     one — the only field of the document that is not a deterministic
     function of the seed. *)
  let fixed_wall = ref false

  let write ~path ~wall_seconds =
    let wall_seconds = if !fixed_wall then 0.0 else wall_seconds in
    let oc = open_out path in
    Printf.fprintf oc {|{"schema":"%s","wall_seconds":%.1f,"records":[|}
      schema wall_seconds;
    List.iteri
      (fun i (tgt, label, data) ->
        if i > 0 then output_char oc ',';
        Printf.fprintf oc "\n  {\"target\":\"%s\",\"label\":\"%s\",\"data\":%s}"
          (escape tgt) (escape label) data)
      (List.rev !records);
    output_string oc "\n]}\n";
    close_out oc;
    Printf.printf "\njson    -> %s (%d records)\n" path (List.length !records)
end

module Registry = Marlin_runtime.Registry
module Faults = Marlin_faults

let marlin = Registry.find_exn "chained-marlin"
let hotstuff = Registry.find_exn "chained-hotstuff"
let basic_marlin = Registry.find_exn "marlin"
let basic_hotstuff = Registry.find_exn "hotstuff"
let pbft = Registry.find_exn "pbft"
let twophase_insecure = Registry.find_exn "twophase-insecure"

let section title = Printf.printf "\n=== %s ===\n%!" title

let bench_params ?(clients = 16) f =
  let n = (3 * f) + 1 in
  (* Deployments tune view timers to the cluster: a leader broadcast of a
     full batch serializes for ~n * batch_bytes / bandwidth, so the timer
     must comfortably exceed commit time under load or view changes
     thrash. *)
  let base_timeout = 1.0 +. (float_of_int n *. 0.04) in
  {
    (Cluster.params_for_f ~workload:(Workload.closed_loop ~clients) f) with
    Cluster.batch_max = 2000;
    base_timeout;
    max_timeout = 8. *. base_timeout;
  }

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1 ~full =
  section "Table I: view-change complexity of HotStuff and two-phase variants";
  Printf.printf "%-14s %-22s %-36s %-8s %-6s\n" "protocol" "vc communication"
    "vc crypto operations" "vc auth" "phases";
  List.iter
    (fun p ->
      let comm, crypto, auth = Complexity.formulas p in
      Printf.printf "%-14s %-22s %-36s %-8s %-6s\n" (Complexity.name p) comm
        crypto auth (Complexity.vc_phases p))
    Complexity.all;
  Printf.printf
    "\nInstantiated growth (unit constants; u = 2^20, c = 2^10, lambda = 256):\n";
  Printf.printf "%-14s %12s %12s %12s | %14s %12s %10s\n" "comm bits @"
    "n=4" "n=31" "n=91" "non-pair@n=91" "pair@n=91" "auth@n=91";
  List.iter
    (fun p ->
      let at n = Complexity.evaluate p ~n ~u:(1 lsl 20) ~c:1024 ~lambda:256 in
      let c4 = at 4 and c31 = at 31 and c91 = at 91 in
      Printf.printf "%-14s %12.0f %12.0f %12.0f | %14.0f %12.0f %10.0f\n"
        (Complexity.name p) c4.Complexity.communication_bits
        c31.Complexity.communication_bits c91.Complexity.communication_bits
        c91.Complexity.nonpairing_ops c91.Complexity.pairing_ops
        c91.Complexity.authenticators)
    Complexity.all;
  (* Cross-check: bytes/authenticators the simulator actually put on the
     wire during one leader-replacement view change. *)
  Printf.printf
    "\nMeasured view-change traffic (simulated crash-leader; consensus messages only):\n";
  Printf.printf "%-22s %6s %12s %8s %8s\n" "protocol" "n" "bytes" "auths" "msgs";
  let fs = if full then [ 1; 3; 10 ] else [ 1; 3 ] in
  List.iter
    (fun f ->
      List.iter
        (fun (name, proto, force_unhappy) ->
          let r =
            Experiment.run proto ~params:(bench_params f)
              (Experiment.View_change { force_unhappy })
          in
          Printf.printf "%-22s %6d %12d %8d %8d\n" name ((3 * f) + 1)
            r.Experiment.vc_bytes r.Experiment.vc_authenticators
            r.Experiment.vc_messages;
          Recorder.add
            ~label:(Printf.sprintf "%s n=%d" name ((3 * f) + 1))
            (Experiment.view_change_to_json r))
        [
          ("marlin (happy)", basic_marlin, false);
          ("marlin (unhappy)", basic_marlin, true);
          ("hotstuff", basic_hotstuff, false);
        ])
    fs;
  Printf.printf
    "\n(Marlin and HotStuff view changes stay linear in n; Fast-HotStuff,\n\
     Jolteon and Wendy are analytic entries, as in the paper.)\n"

(* ------------------------------------------------------------------ *)
(* Figures 10a-10f: throughput vs latency                              *)
(* ------------------------------------------------------------------ *)

let sweep_clients ~full f =
  let base =
    if full then [ 64; 256; 1024; 2048; 4096; 8192; 16384 ]
    else [ 128; 512; 2048; 8192 ]
  in
  (* Larger clusters saturate earlier (the leader's uplink serializes n
     copies of each block); pushing far past saturation only measures
     queueing. *)
  let cap = if f >= 20 then 4096 else if f >= 10 then 8192 else max_int in
  List.filter (fun c -> c <= cap) base

let durations ~full f =
  if full then if f >= 10 then (2.0, 10.0) else (1.0, 10.0)
  else if f >= 10 then (2.0, 5.0)
  else (1.0, 6.0)

let tput_latency_figure ~full ~fig f =
  section
    (Printf.sprintf "Figure %s: throughput vs latency (f = %d, n = %d, 150 B ops)"
       fig f ((3 * f) + 1));
  Printf.printf "%8s | %12s %8s | %12s %8s\n" "clients" "marlin ktx/s"
    "lat ms" "hotstf ktx/s" "lat ms";
  let warmup, duration = durations ~full f in
  List.iter
    (fun clients ->
      let run proto =
        Experiment.run proto ~params:(bench_params ~clients f)
          (Experiment.Closed { warmup; duration; crashed = [] })
      in
      let m = run marlin and h = run hotstuff in
      if not (m.Experiment.agreement && h.Experiment.agreement) then
        Printf.printf "!! agreement violated\n";
      Printf.printf "%8d | %12.2f %8.0f | %12.2f %8.0f\n" clients
        (m.Experiment.throughput /. 1000.)
        (m.Experiment.latency.Stats.mean *. 1000.)
        (h.Experiment.throughput /. 1000.)
        (h.Experiment.latency.Stats.mean *. 1000.);
      List.iter
        (fun (name, r) ->
          Recorder.add
            ~label:(Printf.sprintf "%s f=%d clients=%d" name f clients)
            (Experiment.throughput_to_json r))
        [ ("marlin", m); ("hotstuff", h) ])
    (sweep_clients ~full f)

(* ------------------------------------------------------------------ *)
(* Figure 10g: peak throughput, f = 1..10                              *)
(* ------------------------------------------------------------------ *)

let sweep_for ~full proto ~params f =
  let warmup, duration = durations ~full f in
  Experiment.sweep proto ~params ~warmup ~duration
    ~client_counts:(sweep_clients ~full f)

(* The paper's throughput/latency figures plot latency up to ~1 s, and its
   peak-throughput bars read off the end of those curves. Protocols are
   compared at their largest *common* operating point in that range (the
   highest client count at which both stay under 1 s) — comparing each at
   a different load would be apples to oranges. *)
let peaks_at_common_point ~full ~params_m ~params_h f =
  let m = sweep_for ~full marlin ~params:params_m f in
  let h = sweep_for ~full hotstuff ~params:params_h f in
  let pairs = List.combine m h in
  let qualifying =
    List.filter
      (fun ((rm : Experiment.throughput_result),
            (rh : Experiment.throughput_result)) ->
        rm.Experiment.latency.Stats.mean <= 1.0
        && rh.Experiment.latency.Stats.mean <= 1.0)
      pairs
  in
  match List.rev qualifying with
  | best :: _ -> best
  | [] -> List.hd pairs

let fig10g ~full () =
  section "Figure 10g: peak throughput (ktx/s), f = 1..10";
  Printf.printf "%4s | %12s %12s | %8s\n" "f" "marlin" "hotstuff" "gain";
  let fs =
    if full then [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] else [ 1; 2; 3; 5; 7; 10 ]
  in
  List.iter
    (fun f ->
      let params = bench_params f in
      let m, h = peaks_at_common_point ~full ~params_m:params ~params_h:params f in
      Printf.printf "%4d | %12.2f %12.2f | %+7.1f%%\n" f
        (m.Experiment.throughput /. 1000.)
        (h.Experiment.throughput /. 1000.)
        (((m.Experiment.throughput /. h.Experiment.throughput) -. 1.) *. 100.);
      List.iter
        (fun (name, r) ->
          Recorder.add ~label:(Printf.sprintf "%s peak f=%d" name f)
            (Experiment.throughput_to_json r))
        [ ("marlin", m); ("hotstuff", h) ])
    fs

(* ------------------------------------------------------------------ *)
(* Figure 10h: peak throughput with no-op requests                     *)
(* ------------------------------------------------------------------ *)

let fig10h ~full () =
  section "Figure 10h: peak throughput (ktx/s) with no-op requests, f in {1, 2, 5}";
  Printf.printf "%4s | %12s %12s | %12s\n" "f" "marlin noop" "hotstf noop"
    "marlin 150B";
  List.iter
    (fun f ->
      let noop_params =
        { (bench_params f) with Cluster.op_size = 0; reply_size = 0 }
      in
      let m, h = peaks_at_common_point ~full ~params_m:noop_params ~params_h:noop_params f in
      let m150, _ =
        peaks_at_common_point ~full ~params_m:(bench_params f)
          ~params_h:(bench_params f) f
      in
      Printf.printf "%4d | %12.2f %12.2f | %12.2f\n" f
        (m.Experiment.throughput /. 1000.)
        (h.Experiment.throughput /. 1000.)
        (m150.Experiment.throughput /. 1000.);
      List.iter
        (fun (name, r) ->
          Recorder.add ~label:(Printf.sprintf "%s noop peak f=%d" name f)
            (Experiment.throughput_to_json r))
        [ ("marlin", m); ("hotstuff", h) ])
    [ 1; 2; 5 ]

(* ------------------------------------------------------------------ *)
(* Figure 10i: view-change latency                                     *)
(* ------------------------------------------------------------------ *)

let fig10i ~full () =
  section "Figure 10i: view-change latency (ms), crash-the-leader";
  Printf.printf "%4s | %14s %16s %12s\n" "f" "marlin happy" "marlin unhappy"
    "hotstuff";
  let fs = if full then [ 1; 5; 10 ] else [ 1; 10 ] in
  List.iter
    (fun f ->
      let params = bench_params f in
      let vc proto force_unhappy =
        Experiment.run proto ~params (Experiment.View_change { force_unhappy })
      in
      let happy = vc basic_marlin false in
      let unhappy = vc basic_marlin true in
      let hs = vc basic_hotstuff false in
      let ms r =
        if Float.is_finite r.Experiment.vc_latency then
          Printf.sprintf "%.0f%s"
            (r.Experiment.vc_latency *. 1000.)
            (if r.Experiment.unhappy then "*" else "")
        else "stuck"
      in
      Printf.printf "%4d | %14s %16s %12s\n" f (ms happy) (ms unhappy) (ms hs);
      List.iter
        (fun (name, r) ->
          Recorder.add ~label:(Printf.sprintf "%s f=%d" name f)
            (Experiment.view_change_to_json r))
        [ ("marlin-happy", happy); ("marlin-unhappy", unhappy); ("hotstuff", hs) ])
    fs;
  Printf.printf "(* = the PRE-PREPARE phase ran, i.e. the unhappy path)\n"

(* ------------------------------------------------------------------ *)
(* Figure 10j: rotating leaders under crash faults                     *)
(* ------------------------------------------------------------------ *)

let fig10j ~full () =
  section
    "Figure 10j: throughput (ktx/s), rotating leaders (1 s), f = 3, crashes at t=0";
  Printf.printf "%10s | %12s %12s\n" "crashed" "marlin" "hotstuff";
  let f = 3 in
  let clients = if full then 4096 else 2048 in
  let params =
    {
      (bench_params ~clients f) with
      Cluster.rotation = Some 1.0;
      base_timeout = 0.8;
    }
  in
  let warmup = 2.0 and duration = if full then 60.0 else 24.0 in
  List.iter
    (fun k ->
      (* crash high ids (the f+1 lowest answer clients), spread out so dead
         views do not cluster *)
      let crashed = match k with 0 -> [] | 1 -> [ 9 ] | _ -> [ 5; 7; 9 ] in
      let run proto =
        Experiment.run proto ~params
          (Experiment.Closed { warmup; duration; crashed })
      in
      let m = run marlin and h = run hotstuff in
      Printf.printf "%10d | %12.2f %12.2f\n" k
        (m.Experiment.throughput /. 1000.)
        (h.Experiment.throughput /. 1000.);
      List.iter
        (fun (name, r) ->
          Recorder.add ~label:(Printf.sprintf "%s crashed=%d" name k)
            (Experiment.throughput_to_json r))
        [ ("marlin", m); ("hotstuff", h) ])
    [ 0; 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Related work (Section II): no one-size-fits-all BFT                 *)
(* ------------------------------------------------------------------ *)

(* The paper's Section II: PBFT's client-to-client latency is 5 one-way
   delays, two-phase variants like Marlin 7, HotStuff 9 — but PBFT pays
   O(n^2) normal-case communication where HotStuff-style protocols are
   linear. Both halves are measured here. *)
let related_work ~full () =
  section "Section II: PBFT vs Marlin vs HotStuff (latency hops, communication)";
  Printf.printf "%-10s | %12s %9s | %16s\n" "protocol" "latency ms"
    "~hops" "net bytes/op";
  let f = if full then 2 else 1 in
  let params = { (bench_params ~clients:8 f) with Cluster.seed = 5 } in
  let hop = params.Cluster.net.Marlin_sim.Netsim.latency in
  List.iter
    (fun (name, proto) ->
      let module P = (val proto : C.PROTOCOL) in
      let module Cl = Cluster.Make (P) in
      let t = Cl.create params in
      Cl.run t ~until:6.0;
      let lat =
        Stats.mean (Cl.latencies_in t ~since:1.0 ~until:6.0)
      in
      let executed = Cl.committed_ops_in t ~replica:0 ~since:1.0 ~until:6.0 in
      let bytes = (Marlin_sim.Netsim.stats (Cl.net t)).Marlin_sim.Netsim.bytes in
      Printf.printf "%-10s | %12.0f %9.1f | %16.0f\n" name (lat *. 1000.)
        (lat /. hop)
        (float_of_int bytes /. float_of_int (max 1 executed));
      Recorder.add ~label:name
        (Printf.sprintf
           {|{"latency_mean":%.6f,"hops":%.2f,"bytes_per_op":%.1f}|} lat
           (lat /. hop)
           (float_of_int bytes /. float_of_int (max 1 executed))))
    [ ("pbft", pbft); ("marlin", basic_marlin); ("hotstuff", basic_hotstuff) ];
  Printf.printf
    "(paper: 5 vs 7 vs 9 hops; PBFT trades quadratic communication for\n\
    \ the lower latency — bytes/op grows with n for PBFT, not for the\n\
    \ HotStuff-style protocols)\n"

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

(* The paper's Section I observation: HotStuff-style protocols are usually
   *faster* with plain signatures than with pairing-based threshold
   signatures, despite the worse asymptotic authenticator complexity —
   pairings cost orders of magnitude more CPU. *)
let ablate_sigs ~full () =
  section "Ablation: signature scheme (ECDSA group vs BLS pairing)";
  Printf.printf "%-12s %-14s | %12s %8s | %14s
" "scheme" "protocol"
    "peak ktx/s" "lat ms" "vc latency ms";
  let f = 1 in
  List.iter
    (fun (name, cost) ->
      List.iter
        (fun (pname, proto, basic) ->
          let params = { (bench_params f) with Cluster.cost_model = cost } in
          let peak, cap =
            Experiment.peak ~latency_cap:1.0 (sweep_for ~full proto ~params f)
          in
          (match cap with
          | `Within_cap -> ()
          | `Fallback ->
              Printf.printf
                "!! %s/%s: no sweep point under the 1 s cap; peak below is \
                 saturated, not sustainable\n"
                name pname);
          let vc =
            Experiment.run basic ~params
              (Experiment.View_change { force_unhappy = false })
          in
          Printf.printf "%-12s %-14s | %12.2f %8.0f | %14.0f
" name pname
            (peak.Experiment.throughput /. 1000.)
            (peak.Experiment.latency.Stats.mean *. 1000.)
            (vc.Experiment.vc_latency *. 1000.);
          Recorder.add ~label:(Printf.sprintf "%s %s peak" name pname)
            (Experiment.throughput_to_json peak);
          Recorder.add ~label:(Printf.sprintf "%s %s vc" name pname)
            (Experiment.view_change_to_json vc))
        [ ("marlin", marlin, basic_marlin); ("hotstuff", hotstuff, basic_hotstuff) ])
    [
      ("ecdsa-group", Marlin_crypto.Cost_model.ecdsa_group);
      ("bls-pairing", Marlin_crypto.Cost_model.bls_pairing);
    ]

(* Shadow blocks (Section IV-D): the two view-change proposals share one
   payload, so the second ships metadata only. Without the optimization
   the PRE-PREPARE message would carry the payload twice. *)
let ablate_shadow () =
  section "Ablation: shadow blocks (PRE-PREPARE wire bytes, V1 shadow pair)";
  Printf.printf "%10s | %14s %14s | %8s
" "batch ops" "with shadow"
    "without" "saved";
  let kc = Marlin_crypto.Keychain.create ~n:4 () in
  let sig_bytes =
    Marlin_crypto.Cost_model.combined_size Marlin_crypto.Cost_model.ecdsa_group
      ~n:4 ~shares:3
  in
  List.iter
    (fun ops ->
      let payload =
        Marlin_types.Batch.of_list
          (List.init ops (fun i ->
               Marlin_types.Operation.make ~client:1 ~seq:i
                 ~body:(String.make 150 'x')))
      in
      let open Marlin_types in
      let g = Block.genesis in
      let qc =
        let b = Block.to_ref g in
        let ps = List.init 3 (fun i -> Qc.sign_vote kc ~signer:i ~phase:Qc.Prepare ~view:0 b) in
        match Qc.combine kc ~threshold:3 ~phase:Qc.Prepare ~view:0 b ps with
        | Ok qc -> qc
        | Error e -> failwith e
      in
      let b1 = Block.make_normal ~parent:g ~view:1 ~payload ~justify:(Block.J_qc qc) in
      let b2 =
        Block.make_virtual ~pview:0 ~view:1 ~height:2 ~payload ~justify:(Block.J_qc qc)
      in
      let shadow =
        Message.wire_size ~sig_bytes
          (Message.make ~sender:1 ~view:1 (Message.Pre_prepare { proposals = [ b1; b2 ] }))
      in
      let naive =
        Message.wire_size ~sig_bytes
          (Message.make ~sender:1 ~view:1 (Message.Pre_prepare { proposals = [ b1 ] }))
        + Message.wire_size ~sig_bytes
            (Message.make ~sender:1 ~view:1 (Message.Pre_prepare { proposals = [ b2 ] }))
      in
      Printf.printf "%10d | %14d %14d | %7.1f%%
" ops shadow naive
        (100. *. (1. -. (float_of_int shadow /. float_of_int naive)));
      Recorder.add ~label:(Printf.sprintf "batch=%d" ops)
        (Printf.sprintf {|{"with_shadow":%d,"without":%d}|} shadow naive))
    [ 0; 16; 128; 1024 ]

(* Batch size drives the block rate / latency trade-off. *)
let ablate_batch ~full () =
  section "Ablation: batch size (chained Marlin, f = 1)";
  Printf.printf "%10s | %12s %8s
" "batch max" "ktx/s" "lat ms";
  let clients = if full then 8192 else 4096 in
  List.iter
    (fun batch_max ->
      let params = { (bench_params ~clients 1) with Cluster.batch_max } in
      let r =
        Experiment.run marlin ~params
          (Experiment.Closed { warmup = 1.0; duration = 4.0; crashed = [] })
      in
      Printf.printf "%10d | %12.2f %8.0f
" batch_max
        (r.Experiment.throughput /. 1000.)
        (r.Experiment.latency.Stats.mean *. 1000.);
      Recorder.add ~label:(Printf.sprintf "batch=%d" batch_max)
        (Experiment.throughput_to_json r))
    [ 125; 500; 2000; 8000 ]

(* ------------------------------------------------------------------ *)
(* Fault catalogue: recovery under crashes, partitions, Byzantine      *)
(* ------------------------------------------------------------------ *)

(* Every scenario of the marlin_faults catalogue against each protocol:
   how long until the cluster commits again after the disruption settles,
   and how much view-change traffic (messages/authenticators — Marlin and
   HotStuff both stay linear in n) the recovery cost. *)
let faults ~full () =
  section "Fault catalogue: recovery latency and view-change traffic";
  Printf.printf "%-20s %-18s | %9s %6s %6s | %8s %6s\n" "scenario" "protocol"
    "recov ms" "msgs" "auths" "lat ms" "agree";
  let protos =
    if full then [ "marlin"; "hotstuff"; "chained-marlin"; "chained-hotstuff" ]
    else [ "marlin"; "hotstuff" ]
  in
  List.iter
    (fun (sc : Faults.Scenario.t) ->
      List.iter
        (fun pname ->
          let r =
            Experiment.run (Registry.find_exn pname)
              ~params:(bench_params sc.Faults.Scenario.f)
              (Experiment.Scenario sc)
          in
          Printf.printf "%-20s %-18s | %9s %6d %6d | %8.0f %6B\n"
            sc.Faults.Scenario.name pname
            (if r.Experiment.recovered then
               Printf.sprintf "%.0f" (r.Experiment.recovery_latency *. 1000.)
             else "stuck")
            r.Experiment.vc_messages r.Experiment.vc_authenticators
            (r.Experiment.latency.Stats.mean *. 1000.)
            r.Experiment.agreement;
          if not r.Experiment.agreement then
            Printf.printf "!! agreement violated: %s under %s\n"
              sc.Faults.Scenario.name pname;
          Recorder.add
            ~label:(Printf.sprintf "%s/%s" sc.Faults.Scenario.name pname)
            (Experiment.fault_to_json r))
        protos)
    Faults.Catalogue.all

(* ------------------------------------------------------------------ *)
(* Observability: instrumented runs (--trace / --metrics-out)          *)
(* ------------------------------------------------------------------ *)

module Obs = Marlin_obs

(* A fully instrumented happy-path run of the basic protocols at f = 1
   with a single closed-loop client, so every op becomes its own block and
   the consensus message counters can be read against the closed-form
   happy-path cost: (2p + 1)(n - 1) messages per block — 5(n-1) for
   two-phase Marlin, 7(n-1) for three-phase HotStuff. With --metrics-out
   the per-replica per-kind counters and latency histograms go to one CSV;
   with --trace the full event log goes to JSONL. *)
let observe ~full ~trace_file ~metrics_file () =
  section
    "Observability: instrumented Marlin vs HotStuff (basic, f = 1, 1 client)";
  (* open output files first so a bad path fails before the runs *)
  let metrics_oc = Option.map open_out metrics_file in
  let trace_oc = Option.map open_out trace_file in
  let n = 4 in
  let duration = if full then 30.0 else 10.0 in
  let runs =
    List.map
      (fun (label, proto, cproto) ->
        let obs = Obs.Run.create ~trace:(trace_file <> None) ~n () in
        let params =
          { (bench_params ~clients:1 1) with Cluster.obs = Some obs }
        in
        let r =
          Experiment.run proto ~params
            (Experiment.Closed { warmup = 1.0; duration; crashed = [] })
        in
        (label, cproto, obs, r))
      [
        ("marlin", basic_marlin, Complexity.Marlin);
        ("hotstuff", basic_hotstuff, Complexity.Hotstuff);
      ]
  in
  List.iter
    (fun (label, cproto, obs, (r : Experiment.throughput_result)) ->
      let metrics = Obs.Run.metrics obs in
      Printf.printf "\n%s: %.0f op/s, agreement %B\n" label
        r.Experiment.throughput r.Experiment.agreement;
      Printf.printf "  %7s | %6s %10s %6s | %7s %4s %6s | %10s %8s\n" "replica"
        "msgs" "bytes" "auths" "blocks" "vcs" "timers" "commit ms" "p95 ms";
      Array.iter
        (fun m ->
          let c = Obs.Metrics.consensus_sent m in
          let lat = Obs.Metrics.commit_latency m in
          Printf.printf "  %7d | %6d %10d %6d | %7d %4d %6d | %10.1f %8.1f\n"
            (Obs.Metrics.replica m) c.Obs.Metrics.msgs c.Obs.Metrics.bytes
            c.Obs.Metrics.auths
            (Obs.Metrics.blocks_committed m)
            (Obs.Metrics.view_changes m)
            (Obs.Metrics.timer_fires m)
            (lat.Stats.mean *. 1000.) (lat.Stats.p95 *. 1000.))
        metrics;
      let total_msgs =
        Array.fold_left
          (fun acc m -> acc + (Obs.Metrics.consensus_sent m).Obs.Metrics.msgs)
          0 metrics
      in
      let blocks = Obs.Metrics.blocks_committed metrics.(0) in
      Printf.printf
        "  consensus msgs: %d over %d blocks = %.2f/block (model: %d msgs, %d \
         voting phases)\n"
        total_msgs blocks
        (float_of_int total_msgs /. float_of_int (max 1 blocks))
        (Complexity.happy_messages cproto ~n)
        (Complexity.happy_phases cproto);
      (* when traced, say where the commit latency went *)
      (match Obs.Run.trace_events obs with
      | [] -> ()
      | _ ->
          Format.printf "%a%!" Obs.Critical_path.pp
            (Experiment.critical_path ~label obs));
      Recorder.add ~label
        (Experiment.profile_json ~label ~sim_seconds:(1.0 +. duration) r obs))
    runs;
  (match (metrics_oc, metrics_file) with
  | Some oc, Some path ->
      output_string oc Obs.Run.metrics_csv_header;
      output_char oc '\n';
      List.iter
        (fun (label, _, obs, _) ->
          output_string oc (Obs.Run.metrics_csv ~label obs))
        runs;
      close_out oc;
      Printf.printf "\nmetrics -> %s\n" path
  | _ -> ());
  match (trace_oc, trace_file) with
  | Some oc, Some path ->
      List.iter
        (fun (label, _, obs, _) -> Obs.Run.write_trace ~run:label oc obs)
        runs;
      close_out oc;
      Printf.printf "trace   -> %s\n" path
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Smoke / spans: the machine-readable bench pipeline                  *)
(* ------------------------------------------------------------------ *)

(* A tiny deterministic pass: fully traced profile runs of the basic
   protocols (critical-path breakdown included) plus one quick point from
   each experiment family. Running this with --json produces the document
   committed as bench/baselines/BENCH_smoke.json; the regress gate re-runs
   it and compares the returned records. *)
let smoke () =
  section "Smoke: traced profile runs + one point per experiment family";
  let recs = ref [] in
  let put label data =
    recs := (label, data) :: !recs;
    Recorder.add ~label data
  in
  List.iter
    (fun (label, proto) ->
      let params = bench_params ~clients:1 1 in
      let obs = Obs.Run.create ~trace:true ~n:params.Cluster.n () in
      let r =
        Experiment.run proto ~params:{ params with Cluster.obs = Some obs }
          (Experiment.Closed { warmup = 1.0; duration = 3.0; crashed = [] })
      in
      let cp = Experiment.critical_path ~label obs in
      Format.printf "%a%!" Obs.Critical_path.pp cp;
      (* the decomposition must stay exact, so no re-bless can record a
         broken one *)
      if cp.Obs.Critical_path.max_attribution_error > 1e-9 then begin
        Printf.eprintf "%s: span attribution error %.3g s exceeds 1e-9\n" label
          cp.Obs.Critical_path.max_attribution_error;
        exit 1
      end;
      put (label ^ "/profile")
        (Experiment.profile_json ~label ~sim_seconds:4.0 r obs))
    [ ("marlin", basic_marlin); ("hotstuff", basic_hotstuff); ("pbft", pbft) ];
  List.iter
    (fun (label, proto) ->
      let r =
        Experiment.run proto ~params:(bench_params ~clients:512 1)
          (Experiment.Closed { warmup = 1.0; duration = 3.0; crashed = [] })
      in
      Printf.printf "%s loaded point: %.0f op/s, agreement %B\n" label
        r.Experiment.throughput r.Experiment.agreement;
      put (label ^ "/tput") (Experiment.throughput_to_json r))
    [ ("marlin", marlin); ("hotstuff", hotstuff) ];
  List.iter
    (fun (label, proto, force_unhappy) ->
      let r =
        Experiment.run proto ~params:(bench_params 1)
          (Experiment.View_change { force_unhappy })
      in
      Printf.printf "%s view change: %.0f ms (%s)\n" label
        (r.Experiment.vc_latency *. 1000.)
        (if r.Experiment.unhappy then "unhappy" else "happy");
      put (label ^ "/vc") (Experiment.view_change_to_json r))
    [
      ("marlin", basic_marlin, false);
      ("marlin-unhappy", basic_marlin, true);
      ("hotstuff", basic_hotstuff, false);
    ];
  (* one deterministic fault scenario, so the regression gate covers
     recovery latency and view-change traffic under the fault subsystem *)
  List.iter
    (fun (label, proto) ->
      let sc = Faults.Catalogue.leader_crash ~phase:`Prepare () in
      let r =
        Experiment.run proto ~params:(bench_params 1) (Experiment.Scenario sc)
      in
      Printf.printf "%s %s: %s, %d vc msgs, agreement %B\n" label
        sc.Faults.Scenario.name
        (if r.Experiment.recovered then
           Printf.sprintf "recovered in %.0f ms"
             (r.Experiment.recovery_latency *. 1000.)
         else "NEVER RECOVERED")
        r.Experiment.vc_messages r.Experiment.agreement;
      put (label ^ "/fault") (Experiment.fault_to_json r))
    [ ("marlin", basic_marlin); ("hotstuff", basic_hotstuff) ];
  List.rev !recs

(* Post-hoc span analysis of a JSONL trace file (the output of
   [observe --trace FILE]), one critical-path report per run label. With
   --windows WIDTH the spans are additionally binned into fixed windows of
   WIDTH simulated seconds — the same windowed segment attribution a live
   [attribution] run computes, but over any recorded trace. *)
let spans ~trace_file ~windows () =
  let path =
    match trace_file with
    | Some p -> p
    | None ->
        prerr_endline "spans needs --trace FILE (a JSONL trace to analyse)";
        exit 2
  in
  let width =
    match windows with
    | None -> None
    | Some s -> (
        match float_of_string_opt s with
        | Some w when w > 0. -> Some w
        | _ ->
            Printf.eprintf "--windows wants a positive float (seconds), got %S\n"
              s;
            exit 2)
  in
  section (Printf.sprintf "Causal spans: %s" path);
  List.iter
    (fun (run, events) ->
      let label = if run = "" then Filename.basename path else run in
      let sp = Obs.Span.reconstruct events in
      let cp = Obs.Critical_path.analyze ~label sp in
      Format.printf "%a%!" Obs.Critical_path.pp cp;
      match width with
      | None -> Recorder.add ~label (Obs.Critical_path.to_json cp)
      | Some width ->
          let ts = Obs.Timeseries.create ~width () in
          (* commits (and their whole-span latency) come from the spans
             themselves — a recorded trace has no live completion feed *)
          List.iter
            (fun (s : Obs.Span.t) ->
              if s.Obs.Span.complete then
                Obs.Timeseries.note_completion ts ~time:s.Obs.Span.commit_time
                  ~latency:(Obs.Span.total s))
            sp;
          Obs.Timeseries.bin_segments ts sp;
          List.iter
            (fun w -> Format.printf "  %a@." Obs.Timeseries.pp_window w)
            (Obs.Timeseries.windows ts);
          Recorder.add ~label
            (Printf.sprintf {|{"critical_path":%s,"timeseries":%s}|}
               (Obs.Critical_path.to_json cp)
               (Obs.Timeseries.to_json ~label ts)))
    (Obs.Trace_reader.runs (Obs.Trace_reader.read_file path))

(* ------------------------------------------------------------------ *)
(* Scaling: consensus traffic / latency / scheduler footprint vs n     *)
(* ------------------------------------------------------------------ *)

(* The n-sweep behind the linearity claim at scale: for every registry
   protocol and each n, one happy-path window (consensus msgs, auths,
   bytes, committed blocks, client latency, the event queue's peak
   occupancy) and one leader-crash view change (vc latency and traffic).
   Everything but wall_seconds is simulated and therefore deterministic;
   with --json the output is the BENCH_scaling.json baseline format. *)

let scaling_ns ~smoke =
  if smoke then [ 8; 16; 32; 64 ] else [ 8; 16; 32; 64; 128; 256 ]

(* PBFT's happy path really is O(n^2) messages, each vote carrying a tag
   the receiver verifies — so its wall-clock cost grows ~n^3 and would
   dwarf the rest of the sweep. The quadratic divergence is unmistakable
   well before the cap; the cap is printed, never silent. *)
let scaling_cap ~smoke name =
  match name with "pbft" -> if smoke then 32 else 64 | _ -> max_int

let scaling_params ~smoke n =
  let f = max 1 ((n - 1) / 3) in
  (* view timers only need to cover commit time at these light loads; the
     bench_params formula would inflate the leader-crash windows (4 *
     base_timeout of simulated post-recovery traffic) at n = 256 *)
  let base_timeout = 1.0 +. (float_of_int n *. 0.01) in
  {
    Cluster.default_params with
    Cluster.n;
    f;
    workload = Workload.closed_loop ~clients:(if smoke then 8 else 16);
    batch_max = 400;
    base_timeout;
    max_timeout = 8. *. base_timeout;
  }

let scaling ~smoke () =
  let ns = scaling_ns ~smoke in
  section
    (Printf.sprintf "Scaling: consensus traffic vs n (n in {%s}%s)"
       (String.concat ", " (List.map string_of_int ns))
       (if smoke then "; smoke" else ""));
  Printf.printf "%-18s %5s %10s %12s %12s %9s %8s %8s %10s %8s\n" "protocol"
    "n" "tput" "msgs/block" "auths/block" "vc ms" "vc msgs" "vc auth"
    "peak evts" "wall s";
  let recs = ref [] in
  List.iter
    (fun (name, proto) ->
      let cap = scaling_cap ~smoke name in
      (match List.filter (fun n -> n > cap) ns with
      | [] -> ()
      | capped ->
          Printf.printf
            "%-18s capped at n=%d (skipping n in {%s}: O(n^2) vote \
             verification dominates wall time)\n"
            name cap
            (String.concat ", " (List.map string_of_int capped)));
      List.iter
        (fun n ->
          let t0 = Unix.gettimeofday () in
          let params = scaling_params ~smoke n in
          let module P = (val proto : C.PROTOCOL) in
          let module Cl = Cluster.Make (P) in
          (* happy-path window *)
          let obs = Obs.Run.create ~n () in
          let t = Cl.create { params with Cluster.obs = Some obs } in
          let warm = 1.0 and dur = if smoke then 2.0 else 3.0 in
          Cl.run t ~until:(warm +. dur);
          let metrics = Obs.Run.metrics obs in
          let msgs, auths, bytes =
            Array.fold_left
              (fun (m, a, b) reg ->
                let c = Obs.Metrics.consensus_sent reg in
                ( m + c.Obs.Metrics.msgs,
                  a + c.Obs.Metrics.auths,
                  b + c.Obs.Metrics.bytes ))
              (0, 0, 0) metrics
          in
          let blocks =
            Array.fold_left
              (fun acc reg -> max acc (Obs.Metrics.blocks_committed reg))
              0 metrics
          in
          let executed =
            Cl.committed_ops_in t ~replica:0 ~since:warm ~until:(warm +. dur)
          in
          let latency =
            Stats.summarize (Cl.latencies_in t ~since:warm ~until:(warm +. dur))
          in
          let agreement = Cl.check_agreement t in
          let peak_events = Marlin_sim.Sim.peak_pending (Cl.sim t) in
          let per_block v =
            float_of_int v /. float_of_int (max 1 blocks)
          in
          (* leader-crash view change, fresh cluster *)
          let vc =
            Experiment.run proto
              ~params:{ params with Cluster.obs = None }
              (Experiment.View_change { force_unhappy = false })
          in
          let vc_latency =
            if Float.is_finite vc.Experiment.vc_latency then
              vc.Experiment.vc_latency
            else -1. (* never recovered in the window (e.g. a livelock) *)
          in
          let wall = Unix.gettimeofday () -. t0 in
          let throughput = float_of_int executed /. dur in
          Printf.printf
            "%-18s %5d %10.1f %12.2f %12.2f %9.0f %8d %8d %10d %8.2f\n%!" name
            n throughput (per_block msgs) (per_block auths)
            (vc_latency *. 1000.) vc.Experiment.vc_messages
            vc.Experiment.vc_authenticators peak_events wall;
          let label = Printf.sprintf "%s n=%d" name n in
          let data =
            Printf.sprintf
              {|{"n":%d,"f":%d,"clients":%d,"throughput":%.2f,"latency_mean":%.6f,"blocks":%d,"happy_msgs":%d,"happy_auths":%d,"happy_bytes":%d,"msgs_per_block":%.4f,"auths_per_block":%.4f,"vc_latency":%.6f,"vc_msgs":%d,"vc_auths":%d,"vc_bytes":%d,"peak_events":%d,"agreement":%b,"wall_seconds":%.3f}|}
              n params.Cluster.f
              (Workload.closed_clients params.Cluster.workload)
              throughput
              latency.Stats.mean blocks msgs auths bytes (per_block msgs)
              (per_block auths) vc_latency vc.Experiment.vc_messages
              vc.Experiment.vc_authenticators vc.Experiment.vc_bytes
              peak_events agreement wall
          in
          recs := (label, data) :: !recs;
          Recorder.add ~label data)
        (List.filter (fun n -> n <= cap) ns))
    (Registry.all ());
  (* the headline: view-change authenticators, linear vs quadratic *)
  let vc_auths_of proto_name n =
    List.assoc_opt (Printf.sprintf "%s n=%d" proto_name n) !recs
    |> Option.map (fun d ->
           match Obs.Json_lite.parse d with
           | Ok j -> Obs.Json_lite.float_at [ "vc_auths" ] j
           | Error _ -> None)
    |> Option.join
  in
  let lo = List.hd ns in
  let growth proto_name =
    (* ratio over the protocol's widest measured span *)
    let hi =
      List.fold_left
        (fun acc n -> if vc_auths_of proto_name n <> None then n else acc)
        lo ns
    in
    match (vc_auths_of proto_name lo, vc_auths_of proto_name hi) with
    | Some a_lo, Some a_hi when a_lo > 0. && hi > lo ->
        Some (hi, a_lo, a_hi)
    | _ -> None
  in
  (match (growth "marlin", growth "pbft") with
  | Some (m_hi_n, m_lo, m_hi), Some (p_hi_n, p_lo, p_hi) ->
      Printf.printf
        "\nvc authenticators vs n: marlin %.0f@n=%d -> %.0f@n=%d (%.1fx for \
         %.1fx n, linear); pbft %.0f@n=%d -> %.0f@n=%d (%.1fx for %.1fx n, \
         quadratic)\n"
        m_lo lo m_hi m_hi_n (m_hi /. m_lo)
        (float_of_int m_hi_n /. float_of_int lo)
        p_lo lo p_hi p_hi_n (p_hi /. p_lo)
        (float_of_int p_hi_n /. float_of_int lo)
  | _ -> ());
  List.rev !recs

(* ------------------------------------------------------------------ *)
(* Load: open-loop offered-load sweeps over the bounded mempool        *)
(* ------------------------------------------------------------------ *)

(* The open-loop counterpart of the fig10 sweeps: Poisson arrivals from a
   million-key client space against bounded, admission-controlled
   mempools. Goodput tracks the offered rate up to the knee — the max
   sustainable throughput at p99 <= 1 s — and flattens past it, where
   backpressure shedding and ingress rejections turn the drop rate
   non-zero. Everything measured is simulated and therefore deterministic;
   --json output is byte-identical across repeated runs (the envelope's
   wall_seconds, the one wall-clock field, is pinned to 0 by
   [Recorder.fixed_wall]). *)

let load_ns = [ 4; 32 ]

let load_rates ~smoke n =
  (* larger clusters saturate earlier: the leader serializes n copies of
     every block, so halve the sweep for n = 32 *)
  let scale = if n >= 32 then 0.5 else 1.0 in
  let base =
    if smoke then [ 4_000.; 16_000.; 48_000. ]
    else [ 2_000.; 4_000.; 8_000.; 16_000.; 24_000.; 32_000.; 48_000. ]
  in
  List.map (fun r -> r *. scale) base

let load_params ~smoke n =
  let f = max 1 ((n - 1) / 3) in
  let base_timeout = 1.0 +. (float_of_int n *. 0.04) in
  {
    Cluster.default_params with
    Cluster.n;
    f;
    workload =
      Workload.open_loop
        ~arrival:(Arrival.poisson ~rate:1_000.) (* re-targeted per point *)
        ~key_space:1_000_000
        ~sources:(if smoke then 4 else 8) ();
    mempool = Mempool.Config.make ~capacity:8_000 ~per_client_cap:4 ();
    batch_max = 2000;
    base_timeout;
    max_timeout = 8. *. base_timeout;
  }

let load ~smoke () =
  let warmup = 1.0 and duration = if smoke then 4.0 else 10.0 in
  section
    (Printf.sprintf
       "Load: open-loop goodput vs offered load (Poisson, 1M keys, mempool \
        cap 8000%s)"
       (if smoke then "; smoke" else ""));
  let recs = ref [] in
  let put label data =
    recs := (label, data) :: !recs;
    Recorder.add ~label data
  in
  List.iter
    (fun (name, proto) ->
      List.iter
        (fun n ->
          let params = load_params ~smoke n in
          Printf.printf "\n%s n=%d (%s)\n" name n
            (Workload.label params.Cluster.workload);
          Printf.printf "%10s | %10s %8s %8s %9s | %8s %6s\n" "offered"
            "goodput" "drop %" "p99 ms" "p999 ms" "peak occ" "agree";
          let points =
            Experiment.open_loop_sweep proto ~params ~warmup ~duration
              ~rates:(load_rates ~smoke n)
          in
          List.iter
            (fun (r : Experiment.open_loop_result) ->
              Printf.printf "%10.0f | %10.1f %8.2f %8.0f %9.0f | %8d %6B\n"
                r.Experiment.offered r.Experiment.goodput
                (100. *. r.Experiment.drop_rate)
                (r.Experiment.latency.Stats.p99 *. 1000.)
                (r.Experiment.latency.Stats.p999 *. 1000.)
                r.Experiment.peak_occupancy r.Experiment.agreement;
              if not r.Experiment.agreement then
                Printf.printf "!! agreement violated\n";
              put
                (Printf.sprintf "%s n=%d rate=%.0f" name n r.Experiment.offered)
                (Experiment.open_loop_to_json r))
            points;
          let k, cap = Experiment.knee points in
          Printf.printf
            "knee: %.0f op/s sustainable at offered %.0f (p99 %.0f ms)%s\n"
            k.Experiment.goodput k.Experiment.offered
            (k.Experiment.latency.Stats.p99 *. 1000.)
            (match cap with
            | `Within_cap -> ""
            | `Fallback -> "  !! every point blew the 1 s cap");
          put
            (Printf.sprintf "%s n=%d knee" name n)
            (Printf.sprintf {|{"sustainable":%b,"point":%s}|}
               (cap = `Within_cap)
               (Experiment.open_loop_to_json k)))
        load_ns)
    (* chained marlin/hotstuff first, under their PR 7 labels, so the
       records they produce stay byte-identical across the extension to
       the full registry (every point runs in its own fresh cluster) *)
    [
      ("marlin", marlin);
      ("hotstuff", hotstuff);
      ("basic-marlin", basic_marlin);
      ("basic-hotstuff", basic_hotstuff);
      ("pbft", pbft);
      ("twophase-insecure", twophase_insecure);
    ];
  List.rev !recs

(* ------------------------------------------------------------------ *)
(* Attribution: what breaks first at the knee                          *)
(* ------------------------------------------------------------------ *)

(* The join of the span profiler and the offered-load knee: for every
   registry protocol at n in {4, 32}, locate the knee with a cheap
   untraced ladder, then re-run traced + windowed at the knee rate and
   just past it, and classify the binding resource (cpu / serialize /
   nic-queue / propagate / quorum-wait / mempool-backpressure) from the
   per-window segment shares and the drop mix. Deterministic, so --json
   output is byte-identical across runs (wall pinned by
   [Recorder.fixed_wall]). *)

let attribution_ns = [ 4; 32 ]

(* every registry protocol, but keep the bench's canonical display order:
   the chained pair first (the headline comparison), then the rest *)
let attribution_protocols () =
  let canonical =
    [ "chained-marlin"; "chained-hotstuff"; "marlin"; "hotstuff" ]
  in
  let rest =
    List.filter (fun (name, _) -> not (List.mem name canonical))
      (Registry.all ())
  in
  List.map (fun name -> (name, Registry.find_exn name)) canonical @ rest

(* The acceptance invariant of the windowed attribution: within every
   window the five component columns sum to the attributed span seconds
   (the binning splits segments across boundaries exactly). *)
let check_window_invariant ~label ts =
  List.iter
    (fun (w : Obs.Timeseries.window) ->
      let sum =
        List.fold_left
          (fun acc c -> acc +. Obs.Timeseries.component_seconds w c)
          0. Obs.Span.all_components
      in
      if Float.abs (sum -. w.Obs.Timeseries.attributed) > 1e-9 then begin
        Printf.eprintf
          "%s: window %d: segment sum %.12f s != attributed %.12f s\n" label
          w.Obs.Timeseries.index sum w.Obs.Timeseries.attributed;
        exit 1
      end)
    (Obs.Timeseries.windows ts)

let attribution ~smoke () =
  let warmup = 0.5 and duration = if smoke then 2.0 else 8.0 in
  let window = 0.25 in
  section
    (Printf.sprintf
       "Attribution: what breaks first at the knee (window %.2f s%s)" window
       (if smoke then "; smoke" else ""));
  let recs = ref [] in
  let put label data =
    recs := (label, data) :: !recs;
    Recorder.add ~label data
  in
  let rows = ref [] in
  List.iter
    (fun (name, proto) ->
      List.iter
        (fun n ->
          let params = load_params ~smoke n in
          let a =
            Experiment.attribute_knee ~window proto ~name ~params ~warmup
              ~duration ~rates:(load_rates ~smoke n)
          in
          let label = Printf.sprintf "%s n=%d" name n in
          check_window_invariant ~label
            a.Experiment.at_knee.Experiment.timeseries;
          check_window_invariant ~label
            a.Experiment.past_knee.Experiment.timeseries;
          Format.printf "%-22s knee=%7.0f op/s %s  at-knee %a@."
            label a.Experiment.knee_point.Experiment.goodput
            (if a.Experiment.sustainable then "   " else "(!)")
            Obs.Bottleneck.pp_verdict
            a.Experiment.at_knee.Experiment.verdict;
          Format.printf "%-22s %38s past-knee %a@." "" ""
            Obs.Bottleneck.pp_verdict
            a.Experiment.past_knee.Experiment.verdict;
          rows := (label, a) :: !rows;
          put label (Experiment.attribution_to_json a))
        attribution_ns)
    (attribution_protocols ());
  (* headline: one line per protocol/n — the resource that binds past the
     sustainable rate, with its share of the critical path there *)
  Printf.printf "\n%-22s | %10s %-5s | %-20s %s\n" "what breaks first"
    "knee op/s" "sust." "past-knee verdict" "dominant share";
  List.iter
    (fun (label, (a : Experiment.attribution)) ->
      let v = a.Experiment.past_knee.Experiment.verdict in
      let dominant =
        List.fold_left
          (fun (bc, bs) (c, s) ->
            if s > bs then (Obs.Span.component_name c, s) else (bc, bs))
          ("-", 0.) v.Obs.Bottleneck.evidence.Obs.Bottleneck.shares
      in
      Printf.printf "%-22s | %10.0f %-5s | %-20s %s=%.0f%%\n" label
        a.Experiment.knee_point.Experiment.goodput
        (if a.Experiment.sustainable then "yes" else "NO")
        (Obs.Bottleneck.name (Experiment.what_breaks_first a))
        (fst dominant)
        (100. *. snd dominant))
    (List.rev !rows);
  List.rev !recs

(* ------------------------------------------------------------------ *)
(* Regression gates: fresh smoke-size runs vs committed baselines      *)
(* ------------------------------------------------------------------ *)

module Gate = Test_support.Gate

(* One row per gate: (gate target, record target, default baseline, wall
   budget, fixed_wall, fresh run). [Gate] compares every simulated field
   exactly and ignores wall_seconds; the wall budget is the one non-exact
   check, so a scheduler, open-loop or attribution slowdown fails loudly
   even when every simulated number still matches. The fresh records keep
   the record target, so a --json of a gate run is a re-blessed baseline. *)
let gates =
  [
    ("regress", "smoke", "bench/baselines/BENCH_smoke.json", None, true, smoke);
    ( "scaling-regress", "scaling", "bench/baselines/BENCH_scaling.json",
      Some 120., false, scaling ~smoke:true );
    ( "load-regress", "load", "bench/baselines/BENCH_load.json", Some 120.,
      true, load ~smoke:true );
    ( "attribution-regress", "attribution",
      "bench/baselines/BENCH_attribution.json", Some 240., true,
      attribution ~smoke:true );
  ]

(* Run one gate; returns the number of violations. *)
let regress ~baseline (name, target, default, budget, fixed_wall, run) =
  let path = Option.value ~default baseline in
  Recorder.set_target target;
  Recorder.fixed_wall := fixed_wall;
  section (Printf.sprintf "Regression gate: fresh %s run vs %s" target path);
  let unusable e =
    Printf.eprintf "%s: %s\n" path e;
    exit 2
  in
  let doc =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Result.fold ~ok:Fun.id ~error:unusable (Obs.Json_lite.parse text)
    | exception Sys_error e ->
        prerr_endline e;
        exit 2
  in
  (* reject an unusable baseline before the run, not after it *)
  Result.iter_error unusable (Gate.check ~target doc []);
  let t0 = Unix.gettimeofday () in
  let fresh = List.map (fun (l, d) -> (l, Obs.Json_lite.parse_exn d)) (run ()) in
  let wall = Unix.gettimeofday () -. t0 in
  let o = Result.fold ~ok:Fun.id ~error:unusable (Gate.check ~target doc fresh) in
  Printf.printf "\n";
  List.iter (Format.printf "  FAIL %a@." Gate.pp_mismatch) o.Gate.mismatches;
  let over =
    match budget with
    | Some b when wall > b ->
        Printf.printf "  FAIL wall time %.1f s exceeds the %.0f s budget\n" wall b;
        1
    | _ -> 0
  in
  let failures = List.length o.Gate.mismatches + over in
  Printf.printf
    "%s: %d records, %d fields compared, %.1f s wall, %d violation%s -> %s\n"
    name o.Gate.records o.Gate.leaves wall failures
    (if failures = 1 then "" else "s")
    (if failures = 0 then "PASS" else "FAIL");
  if o.Gate.mismatches <> [] then
    Printf.printf "re-bless after an intended change: bench/main.exe %s --json %s\n"
      name path;
  failures

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Pull one "--flag FILE" option out of the argument list. *)
let rec take_opt name = function
  | [] -> (None, [])
  | flag :: value :: rest when flag = name -> (Some value, rest)
  | [ flag ] when flag = name ->
      Printf.eprintf "%s needs a file argument\n" name;
      exit 2
  | x :: rest ->
      let v, rest' = take_opt name rest in
      (v, x :: rest')

let () =
  let full = Array.exists (fun a -> a = "--full") Sys.argv in
  let smoke_flag = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let args =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> a <> "--full" && a <> "--smoke")
  in
  let trace_file, args = take_opt "--trace" args in
  let windows_flag, args = take_opt "--windows" args in
  let metrics_file, args = take_opt "--metrics-out" args in
  let json_file, args = take_opt "--json" args in
  let baseline, args = take_opt "--baseline" args in
  let t0 = Unix.gettimeofday () in
  (* gates report their violations after the json is flushed *)
  let regress_failures = ref 0 in
  let dispatch name =
    Recorder.set_target name;
    match name with
    | "table1" -> table1 ~full
    | "fig10a" -> tput_latency_figure ~full ~fig:"10a" 1
    | "fig10b" -> tput_latency_figure ~full ~fig:"10b" 2
    | "fig10c" -> tput_latency_figure ~full ~fig:"10c" 5
    | "fig10d" -> tput_latency_figure ~full ~fig:"10d" 10
    | "fig10e" -> tput_latency_figure ~full ~fig:"10e" 20
    | "fig10f" -> tput_latency_figure ~full ~fig:"10f" 30
    | "fig10g" -> fig10g ~full ()
    | "fig10h" -> fig10h ~full ()
    | "fig10i" -> fig10i ~full ()
    | "fig10j" -> fig10j ~full ()
    | "related-work" -> related_work ~full ()
    | "faults" -> faults ~full ()
    | "ablate-sigs" -> ablate_sigs ~full ()
    | "ablate-shadow" -> ablate_shadow ()
    | "ablate-batch" -> ablate_batch ~full ()
    | "fig2-demo" -> Bench_demo.run ()
    | "micro" -> Bench_micro.run ()
    | "observe" -> observe ~full ~trace_file ~metrics_file ()
    | "smoke" ->
        Recorder.fixed_wall := true;
        ignore (smoke () : (string * string) list)
    | "spans" -> spans ~trace_file ~windows:windows_flag ()
    | "scaling" ->
        ignore (scaling ~smoke:smoke_flag () : (string * string) list)
    | "load" ->
        Recorder.fixed_wall := true;
        ignore (load ~smoke:smoke_flag () : (string * string) list)
    | "attribution" ->
        Recorder.fixed_wall := true;
        ignore (attribution ~smoke:smoke_flag () : (string * string) list)
    | other -> (
        match List.find_opt (fun (g, _, _, _, _, _) -> g = other) gates with
        | Some row -> regress_failures := !regress_failures + regress ~baseline row
        | None ->
            Printf.eprintf
              "unknown target %S (try: table1 fig10a..fig10f fig10g fig10h \
               fig10i fig10j related-work faults ablate-sigs ablate-shadow \
               ablate-batch fig2-demo micro observe smoke spans regress \
               scaling scaling-regress load load-regress attribution \
               attribution-regress all; observe takes --trace FILE and \
               --metrics-out FILE, spans reads --trace FILE and optionally \
               --windows WIDTH, scaling, load and attribution take --smoke, \
               regress, scaling-regress, load-regress and \
               attribution-regress take --baseline FILE, any run takes \
               --json FILE)\n"
              other;
            exit 2)
  in
  (match args with
  | [] when trace_file <> None || metrics_file <> None -> dispatch "observe"
  | [] | [ "all" ] ->
      List.iter dispatch
        [
          "table1"; "fig10a"; "fig10b"; "fig10c"; "fig10d"; "fig10e"; "fig10f";
          "fig10g"; "fig10h"; "fig10i"; "fig10j"; "related-work"; "faults";
          "ablate-sigs"; "ablate-shadow"; "ablate-batch"; "fig2-demo"; "micro";
        ]
  | targets -> List.iter dispatch targets);
  (match json_file with
  | Some path ->
      Recorder.write ~path ~wall_seconds:(Unix.gettimeofday () -. t0)
  | None -> ());
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0);
  if !regress_failures > 0 then exit 1
