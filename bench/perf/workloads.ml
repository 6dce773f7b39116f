(* The benchmark's workloads: which simulation runs make up one operation,
   the checks each run must pass, and the simulated headline numbers an
   operation yields. Why each workload exists is recorded in README.md
   and BENCHMARK.json. *)

module Cluster = Marlin_runtime.Cluster
module Registry = Marlin_runtime.Registry
module Experiment = Marlin_runtime.Experiment
module Mempool = Marlin_runtime.Mempool
module Stats = Marlin_analysis.Stats
module Workload = Marlin_workload.Workload
module Arrival = Marlin_workload.Arrival
module Sim = Marlin_sim.Sim
module Netsim = Marlin_sim.Netsim
module Scenario = Marlin_faults.Scenario
module Obs = Marlin_obs
module Message = Marlin_types.Message

(* ---------- one simulation run ---------- *)

type spec = {
  protocol : string;
  scenario : Scenario.t option;
  params : Cluster.params;
  warm : float;  (** measurement starts here (simulated seconds) *)
  until : float;
  observed : bool;  (** attach a traced, windowed [Obs.Run] *)
}

(* Everything a run computes that is a function of (code, seed). Repeats of
   one operation must reproduce it bit for bit, traced or not. *)
type sim = {
  window : float;
  completed : int;
  latency : Stats.summary;
  blocks : int;
  cons_msgs : int;
  cons_auths : int;
  cons_bytes : int;
  client_msgs : int;
  net_msgs : int;
  net_bytes : int;
  crypto_ops : int;
  peak_pending : int;
  generated : int;
  shed : int;
  rejected : int;
  inflight_end : int;
  admitted : int;
  refused : int;  (** mempool admission-control rejections, all replicas *)
  peak_occupancy : int;
  recovery : float option;  (** settle to the probe's first commit, s *)
  vc_msgs : int;
  vc_bytes : int;
  vc_auths : int;
  trace_events : int;
  agreement : bool;
  failures : string list;
}

type run = {
  spec : spec;
  sim : sim;
  early_ns : int;  (** wall for the first half of simulated time *)
  late_ns : int;  (** wall for the second half *)
  live_words : int;  (** heap reachable from the cluster at the end, when asked *)
  heap_words : int;  (** the major heap's size at the end, garbage included *)
}

let replay_label spec =
  match spec.scenario with
  | Some sc -> Printf.sprintf "protocol=%s scenario=%s" spec.protocol sc.Scenario.name
  | None -> (
      match Workload.offered_rate spec.params.Cluster.workload with
      | Some rate -> Printf.sprintf "protocol=%s rate=%.0f" spec.protocol rate
      | None -> Printf.sprintf "protocol=%s" spec.protocol)

(* The probe witnessing recovery: the highest replica neither crashed at
   the end nor Byzantine, as Experiment.run_scenario picks it. *)
let probe_of spec =
  let n = spec.params.Cluster.n in
  match spec.scenario with
  | None -> n - 1
  | Some sc ->
      let out =
        Scenario.crashed_at_end sc @ List.map fst (Scenario.byzantine sc)
      in
      let rec find id =
        if id <= 0 || not (List.mem id out) then max id 0 else find (id - 1)
      in
      find (n - 1)

(* The protocol a run drives, with the table that switches its Byzantine
   behaviours on, and the run's parameters with a fresh observer. *)
let prepare ~traced spec =
  let plan = Hashtbl.create 4 in
  let proto = Registry.find_exn spec.protocol in
  let proto =
    match spec.scenario with
    | Some sc when Scenario.has_byzantine sc ->
        Marlin_faults.Byzantine.wrap
          ~plan:(Marlin_faults.Byzantine.plan_of_table plan)
          proto
    | _ -> proto
  in
  let obs =
    if spec.observed then
      Some (Obs.Run.create ~trace:true ~windows:0.25 ~n:spec.params.Cluster.n ())
    else None
  in
  ( plan,
    (if traced then Spans.timed proto else proto),
    { spec.params with Cluster.obs } )

(* Host nanoseconds [Cluster.create] takes for this run: its set-up. *)
let setup_ns spec =
  let _, proto, params = prepare ~traced:false spec in
  let module P = (val proto) in
  let module Cl = Cluster.Make (P) in
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (Cl.create params));
  Spans.now_ns () - t0

let simulate ?(live = false) ~traced spec =
  Spans.span Spans.run
    (fun () ->
      let plan, proto, params = prepare ~traced spec in
      let module P = (val proto) in
      let module Cl = Cluster.Make (P) in
      let n = params.Cluster.n in
      let t = Spans.span Spans.cluster_create Cl.create params in
      let sim = Cl.sim t in
      let cons_msgs = ref 0 and cons_auths = ref 0 and cons_bytes = ref 0 in
      let client_msgs = ref 0 in
      let vc_from =
        match spec.scenario with
        | Some sc -> Scenario.first_fault_at sc
        | None -> infinity
      in
      let vc_log = ref [] in
      Netsim.on_send (Cl.net t)
        (Some
           (fun ~src:_ ~dst:_ ~size m ->
             if Obs.Metrics.is_consensus_message m then begin
               let auths = Message.authenticators m in
               incr cons_msgs;
               cons_auths := !cons_auths + auths;
               cons_bytes := !cons_bytes + size;
               let now = Sim.now sim in
               if now >= vc_from then vc_log := (now, size, auths) :: !vc_log
             end
             else
               match m.Message.payload with
               | Message.Client_op _ | Message.Client_reply _ -> incr client_msgs
               | _ -> ()));
      Option.iter
        (fun sc ->
          Cl.apply_scenario t sc ~on_byzantine:(fun id b -> Hashtbl.replace plan id b))
        spec.scenario;
      let open_loop = Workload.is_open spec.params.Cluster.workload in
      let inflight0 = ref 0 in
      if open_loop && spec.warm > 0. then
        Sim.schedule_at sim ~time:spec.warm (fun () ->
            inflight0 := (Cl.open_loop_stats t).Cluster.inflight;
            Cl.open_loop_reset_window t);
      let t1 = Spans.now_ns () in
      Spans.span Spans.cluster_run (fun until -> Cl.run t ~until) (spec.until /. 2.);
      let t2 = Spans.now_ns () in
      Spans.span Spans.cluster_run (fun until -> Cl.run t ~until) spec.until;
      let t3 = Spans.now_ns () in
      let heap_words = (Gc.quick_stat ()).Gc.heap_words in
      (* counted by walking the cluster's object graph: collecting here
         instead would change how the GC paces the rest of the process *)
      let live_words = if live then Obj.reachable_words (Obj.repr t) else 0 in
      let failures = ref [] in
      let fail msg = failures := msg :: !failures in
      let agreement = Cl.check_agreement t in
      if not agreement then fail "agreement violated";
      let window = spec.until -. spec.warm in
      let completed, latency, generated, shed, rejected, inflight_end =
        if open_loop then begin
          let s = Cl.open_loop_stats t in
          if s.Cluster.generated <> s.Cluster.sent + s.Cluster.shed then
            fail
              (Printf.sprintf "open loop: generated %d <> sent %d + shed %d"
                 s.Cluster.generated s.Cluster.sent s.Cluster.shed);
          if
            !inflight0 + s.Cluster.sent
            <> s.Cluster.rejected + s.Cluster.completed + s.Cluster.inflight
          then
            fail
              (Printf.sprintf
                 "open loop: inflight %d + sent %d <> rejected %d + completed \
                  %d + inflight %d"
                 !inflight0 s.Cluster.sent s.Cluster.rejected
                 s.Cluster.completed s.Cluster.inflight);
          ( s.Cluster.completed, s.Cluster.latency, s.Cluster.generated,
            s.Cluster.shed, s.Cluster.rejected, s.Cluster.inflight )
        end
        else
          ( Cl.committed_ops_in t ~replica:(n - 1) ~since:spec.warm
              ~until:spec.until,
            Stats.summarize (Cl.latencies_in t ~since:spec.warm ~until:spec.until),
            0, 0, 0, 0 )
      in
      let blocks = ref 0 and crypto_ops = ref 0 in
      for id = 0 to n - 1 do
        let p = Cl.protocol t id in
        blocks := max !blocks (P.committed_count p);
        crypto_ops :=
          !crypto_ops + Marlin_core.Cpu_meter.op_count (P.cpu_meter p)
      done;
      let recovery, vc_msgs, vc_bytes, vc_auths =
        match spec.scenario with
        | None -> (None, 0, 0, 0)
        | Some sc ->
            let settle = sc.Scenario.settle_at in
            let first =
              Cl.first_commit_after t ~replica:(probe_of spec) settle
            in
            if Option.is_none first then
              fail
                (Printf.sprintf "probe replica %d never committed after %.3fs"
                   (probe_of spec) settle);
            let until = Option.value first ~default:spec.until in
            let m, b, a =
              List.fold_left
                (fun (m, b, a) (time, size, auths) ->
                  if time <= until then (m + 1, b + size, a + auths) else (m, b, a))
                (0, 0, 0) !vc_log
            in
            (Option.map (fun c -> c -. settle) first, m, b, a)
      in
      let trace_events =
        match params.Cluster.obs with
        | None -> 0
        | Some run ->
            let events = Obs.Run.trace_events run in
            let spans =
              Spans.span Spans.obs_reconstruct Obs.Span.reconstruct events
            in
            let cp =
              Spans.span Spans.obs_critical_path
                (Obs.Critical_path.analyze ~label:spec.protocol)
                spans
            in
            if cp.Obs.Critical_path.max_attribution_error > 1e-9 then
              fail
                (Printf.sprintf "critical path: attribution error %g s"
                   cp.Obs.Critical_path.max_attribution_error);
            Option.iter
              (fun ts ->
                Spans.span Spans.obs_bin_segments
                  (Obs.Timeseries.bin_segments ts)
                  spans)
              (Obs.Run.timeseries run);
            List.length events
      in
      let mp = Cl.mempool_stats t in
      let stats = Netsim.stats (Cl.net t) in
      {
        spec;
        early_ns = t2 - t1;
        late_ns = t3 - t2;
        live_words;
        heap_words;
        sim =
          {
            window;
            completed;
            latency;
            blocks = !blocks;
            cons_msgs = !cons_msgs;
            cons_auths = !cons_auths;
            cons_bytes = !cons_bytes;
            client_msgs = !client_msgs;
            net_msgs = stats.Netsim.messages;
            net_bytes = stats.Netsim.bytes;
            crypto_ops = !crypto_ops;
            peak_pending = Sim.peak_pending sim;
            generated;
            shed;
            rejected;
            inflight_end;
            admitted = mp.Mempool.admitted;
            refused = mp.Mempool.rejected_full + mp.Mempool.rejected_client_cap;
            peak_occupancy = mp.Mempool.peak_occupancy;
            recovery;
            vc_msgs;
            vc_bytes;
            vc_auths;
            trace_events;
            agreement;
            failures = List.rev !failures;
          };
      })
    ()

(* ---------- workloads ---------- *)

type shape =
  | Closed of { protocol : string; n : int; clients : int; warm : float; dur : float }
  | Ladder of { n : int; rates : float list; warm : float; dur : float }
  | Faults of { f : int; rate : float; protocols : string list }

type t = { name : string; shape : shape }

(* Each workload loads different layers; README.md gives the measured split. *)
let all =
  [
    (* the linear happy path at scale: vote and certificate handling, the
       event queue, the network model, client replies. Closed loops get
       their p99's 1000 samples from time, not clients: more clients turn
       the run into client-reply traffic and crowd out the protocol. *)
    {
      name = "happy-n256";
      shape =
        Closed { protocol = "chained-marlin"; n = 256; clients = 64; warm = 1.; dur = 17. };
    };
    (* the request path: arrivals, admission control, big batches; the
       rungs past the 16k knee shed and reject *)
    {
      name = "openloop-n4";
      shape =
        Ladder
          { n = 4; rates = [ 8_000.; 16_000.; 32_000.; 48_000. ]; warm = 0.5; dur = 0.5 };
    };
    (* quadratic point-to-point votes: handlers and per-vote crypto. With
       fewer than about 100 clients the p99 lands near 261 ms or near
       320 ms depending on the seed, a 12-28% spread over ten seeds. *)
    {
      name = "pbft-n32";
      shape = Closed { protocol = "pbft"; n = 32; clients = 112; warm = 1.; dur = 3. };
    };
    (* view changes, Byzantine and network fault paths, the obs passes *)
    {
      name = "faults-n10";
      shape =
        Faults
          { f = 3; rate = 500.; protocols = [ "chained-marlin"; "chained-hotstuff" ] };
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* View timers scale with n as in the repository's scaling sweep: they
   only need to cover commit time at these loads. *)
let sized ~n ~seed ~workload =
  let base_timeout = 1.0 +. (float_of_int n *. 0.01) in
  {
    Cluster.default_params with
    Cluster.n;
    f = (n - 1) / 3;
    workload;
    base_timeout;
    max_timeout = 8. *. base_timeout;
    seed;
  }

let poisson ~rate =
  Workload.open_loop ~sources:4 ~arrival:(Arrival.poisson ~rate)
    ~key_space:1_000_000 ()

(* A catalogue shape rebuilt at [f]: the same steps and timing, with the
   partition splitting the cluster into halves. Shapes written for a larger
   [f] (cascading leaders crash three replicas) keep theirs. *)
let at_f ~f (sc : Scenario.t) =
  let f = max f sc.Scenario.f in
  let n = (3 * f) + 1 in
  let halves =
    [ List.init (n / 2) Fun.id; List.init (n - (n / 2)) (fun i -> (n / 2) + i) ]
  in
  let steps =
    List.map
      (fun (s : Scenario.step) ->
        match s.Scenario.event with
        | Scenario.Partition _ -> Scenario.at s.Scenario.at (Scenario.Partition halves)
        | _ -> s)
      sc.Scenario.steps
  in
  Scenario.make ~name:sc.Scenario.name ~info:sc.Scenario.info ~f ~steps
    ~settle_at:sc.Scenario.settle_at ~run_for:sc.Scenario.run_for ()

(* Pre-GST churn is left out: at n = 10, about one run in thirteen loses
   blocks before GST at the probe replica, which then never catches up
   while the rest of the cluster commits, so the run fails its recovery
   check on seeds nobody can predict. *)
let fault_shapes =
  List.filter
    (fun sc -> not (String.equal sc.Scenario.name "pre-gst-churn"))
    Marlin_faults.Catalogue.all

(* [scale] < 1 shortens every measured window (the smoke run); fault
   scenarios keep their timing and shrink to f = 1 instead. *)
let specs ~scale ~seed w =
  match w.shape with
  | Closed { protocol; n; clients; warm; dur } ->
      [
        {
          protocol;
          scenario = None;
          params = sized ~n ~seed ~workload:(Workload.closed_loop ~clients);
          warm;
          until = warm +. (dur *. scale);
          observed = false;
        };
      ]
  | Ladder { n; rates; warm; dur } ->
      List.map
        (fun rate ->
          let params = sized ~n ~seed ~workload:(poisson ~rate) in
          let base_timeout = 1.0 +. (float_of_int n *. 0.04) in
          {
            protocol = "chained-marlin";
            scenario = None;
            params =
              {
                params with
                Cluster.mempool =
                  Mempool.Config.make ~capacity:8_000 ~per_client_cap:4 ();
                batch_max = 2000;
                base_timeout;
                max_timeout = 8. *. base_timeout;
              };
            warm;
            until = warm +. (dur *. scale);
            observed = false;
          })
        rates
  | Faults { f; rate; protocols } ->
      let f = if scale < 1. then 1 else f in
      List.concat_map
        (fun protocol ->
          List.map
            (fun sc ->
              let sc = at_f ~f sc in
              {
                protocol;
                scenario = Some sc;
                params =
                  sized ~n:((3 * sc.Scenario.f) + 1) ~seed ~workload:(poisson ~rate);
                warm = 0.;
                until = sc.Scenario.run_for;
                observed = true;
              })
            fault_shapes)
        protocols

(* ---------- one operation's simulated headline ---------- *)

type headline = {
  goodput : float;  (** committed ops per simulated second *)
  p50_ms : float;
  p99_ms : float;
  samples : int;  (** latency samples behind p99 (fewest over runs) *)
  msgs_per_block : float;
  auths_per_block : float;
  knee_ops : float;
  drop_rate : float;
  recovery_p50_ms : float;
  vc_msgs_p50 : float;
  vc_bytes_p50 : float;
  vc_auths_p50 : float;
  recovered : int;
}

let per_block v blocks = float_of_int v /. float_of_int (max 1 blocks)
let ms s = s *. 1e3

let median_of f runs = Stats.median (List.map f runs)

let open_loop_result (r : run) : Experiment.open_loop_result =
  let s = r.sim in
  {
    Experiment.workload = Workload.label r.spec.params.Cluster.workload;
    offered =
      Option.value ~default:0. (Workload.offered_rate r.spec.params.Cluster.workload);
    goodput = float_of_int s.completed /. s.window;
    generated = s.generated;
    sent = s.generated - s.shed;
    shed = s.shed;
    rejected = s.rejected;
    drop_rate =
      float_of_int (s.shed + s.rejected) /. float_of_int (max 1 s.generated);
    peak_occupancy = s.peak_occupancy;
    latency = s.latency;
    agreement = s.agreement;
  }

(* Totals over an operation's runs: goodput over all simulated time,
   latency percentiles as medians of the per-run values, per-block counts
   as totals over totals. *)
let aggregate (runs : run list) =
  let sum f = List.fold_left (fun acc r -> acc + f r.sim) 0 runs in
  let blocks = sum (fun s -> s.blocks) in
  let faulted = List.filter (fun r -> Option.is_some r.spec.scenario) runs in
  let recovered = List.filter_map (fun r -> r.sim.recovery) runs in
  let vc f = median_of (fun r -> float_of_int (f r.sim)) faulted in
  {
    goodput =
      float_of_int (sum (fun s -> s.completed))
      /. List.fold_left (fun acc r -> acc +. r.sim.window) 0. runs;
    p50_ms = ms (median_of (fun r -> r.sim.latency.Stats.p50) runs);
    p99_ms = ms (median_of (fun r -> r.sim.latency.Stats.p99) runs);
    samples =
      List.fold_left (fun acc r -> min acc r.sim.latency.Stats.count) max_int runs;
    msgs_per_block = per_block (sum (fun s -> s.cons_msgs)) blocks;
    auths_per_block = per_block (sum (fun s -> s.cons_auths)) blocks;
    knee_ops = 0.;
    drop_rate = 0.;
    recovery_p50_ms = ms (Stats.median recovered);
    vc_msgs_p50 = vc (fun s -> s.vc_msgs);
    vc_bytes_p50 = vc (fun s -> s.vc_bytes);
    vc_auths_p50 = vc (fun s -> s.vc_auths);
    recovered = List.length recovered;
  }

(* An operation's simulated headline, and its failures on top of every
   run's own. The ladder reports goodput at its knee and latency at its
   lowest rung: at the knee the cluster runs at capacity, where latency
   swings with the seed. *)
let headline w (runs : run list) =
  let h = aggregate runs in
  match (w.shape, runs) with
  | Ladder _, lowest :: _ ->
      let points = List.map open_loop_result runs in
      let knee, cap = Experiment.knee ~latency_cap:1.0 points in
      let top = List.nth points (List.length points - 1) in
      let lat = lowest.sim.latency in
      ( {
          h with
          goodput = knee.Experiment.goodput;
          p50_ms = ms lat.Stats.p50;
          p99_ms = ms lat.Stats.p99;
          samples = lat.Stats.count;
          knee_ops = knee.Experiment.offered;
          drop_rate = top.Experiment.drop_rate;
        },
        match cap with
        | `Within_cap -> []
        | `Fallback -> [ "no rung met the 1 s p99 cap" ] )
  | _ -> (h, [])
