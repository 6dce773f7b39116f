module C = Marlin_core.Consensus_intf
module Stats = Marlin_analysis.Stats
module Netsim = Marlin_sim.Netsim
module Sim = Marlin_sim.Sim
module Workload = Marlin_workload.Workload
module Obs = Marlin_obs
module Faults = Marlin_faults
module Message = Marlin_types.Message

type throughput_result = {
  clients : int;
  throughput : float;
  latency : Stats.summary;
  agreement : bool;
  executed : int;
}

type vc_result = {
  vc_latency : float;
  unhappy : bool;
  vc_bytes : int;
  vc_authenticators : int;
  vc_messages : int;
}

type fault_result = {
  scenario : string;
  recovered : bool;
  recovery_latency : float;
  vc_messages : int;
  vc_bytes : int;
  vc_authenticators : int;
  committed : int;
  agreement : bool;
  latency : Stats.summary;
}

type open_loop_result = {
  workload : string;
  offered : float;
  goodput : float;
  generated : int;
  sent : int;
  shed : int;
  rejected : int;
  drop_rate : float;
  peak_occupancy : int;
  latency : Stats.summary;
  agreement : bool;
}

(* -- JSON: one field list per record, rendered through Json_lite -- *)

module J = Obs.Json_lite

let summary_json =
  J.summary ~dp:6 [ `Mean; `P50; `P95; `P99; `P999; `Min; `Max ]

let throughput_to_json (r : throughput_result) =
  J.obj
    [ ("clients", J.int r.clients); ("throughput", J.num ~dp:2 r.throughput);
      ("latency", summary_json r.latency); ("agreement", J.bool r.agreement);
      ("executed", J.int r.executed) ]

let view_change_to_json (r : vc_result) =
  J.obj
    [ ("vc_latency", J.num ~dp:6 r.vc_latency); ("unhappy", J.bool r.unhappy);
      ("vc_bytes", J.int r.vc_bytes);
      ("vc_authenticators", J.int r.vc_authenticators);
      ("vc_messages", J.int r.vc_messages) ]

(* recovery_latency is -1 when the cluster never committed again *)
let fault_to_json (r : fault_result) =
  J.obj
    [ ("scenario", J.str r.scenario); ("recovered", J.bool r.recovered);
      ("recovery_latency", J.num ~dp:6 r.recovery_latency);
      ("vc_messages", J.int r.vc_messages); ("vc_bytes", J.int r.vc_bytes);
      ("vc_authenticators", J.int r.vc_authenticators);
      ("committed", J.int r.committed); ("agreement", J.bool r.agreement);
      ("latency", summary_json r.latency) ]

let open_loop_to_json (r : open_loop_result) =
  J.obj
    [ ("workload", J.str r.workload); ("offered", J.num ~dp:2 r.offered);
      ("goodput", J.num ~dp:2 r.goodput); ("generated", J.int r.generated);
      ("sent", J.int r.sent); ("shed", J.int r.shed);
      ("rejected", J.int r.rejected); ("drop_rate", J.num ~dp:6 r.drop_rate);
      ("peak_occupancy", J.int r.peak_occupancy);
      ("latency", summary_json r.latency); ("agreement", J.bool r.agreement) ]

(* ---------- the driver ---------- *)

type _ measure =
  | Closed : { warmup : float; duration : float; crashed : int list }
      -> throughput_result measure
  | Open : { warmup : float; duration : float } -> open_loop_result measure
  | View_change : { force_unhappy : bool } -> vc_result measure
  | Scenario : Faults.Scenario.t -> fault_result measure

(* The probe whose commits witness progress: the highest-id replica not in
   [down] (low ids answer clients). *)
let probe ~n down =
  let rec find id = if id > 0 && List.mem id down then find (id - 1) else id in
  find (n - 1)

(* Record consensus traffic with timestamps; the returned function sums
   (messages, bytes, authenticators) over a window after the run. *)
let meter sim net =
  let events = ref [] in
  Netsim.on_send net
    (Some
       (fun ~src:_ ~dst:_ ~size m ->
         if Obs.Metrics.is_consensus_message m then
           events := (Sim.now sim, size, Message.authenticators m) :: !events));
  fun ~since ~until ->
    List.fold_left
      (fun (m, b, a) (time, size, auths) ->
        if time >= since && time <= until then (m + 1, b + size, a + auths)
        else (m, b, a))
      (0, 0, 0) !events

let run (type a) proto ~params (measure : a measure) : a =
  (match (measure, params.Cluster.workload) with
  | Open _, Workload.Closed_loop _ ->
      invalid_arg
        "Experiment.run: Open needs an open-loop params.workload (build it \
         with Workload.open_loop)"
  | _ -> ());
  (* Byzantine behaviours are switched on by inserting into this table at
     the scripted instant; the wrapper consults it on every callback. *)
  let plan = Hashtbl.create 4 in
  let proto =
    match measure with
    | Scenario sc when Faults.Scenario.has_byzantine sc ->
        Faults.Byzantine.wrap ~plan:(Faults.Byzantine.plan_of_table plan) proto
    | _ -> proto
  in
  let module P = (val proto : C.PROTOCOL) in
  let module Cl = Cluster.Make (P) in
  let t = Cl.create params in
  let sim = Cl.sim t and net = Cl.net t and n = params.Cluster.n in
  let run_until until =
    Cl.run t ~until;
    (* the live feeds captured commits/drops/occupancy; a traced run's
       critical-path segments are folded in post-hoc so every window also
       carries segment seconds *)
    match params.Cluster.obs with
    | Some obs -> (
        match Obs.Run.timeseries obs with
        | Some ts ->
            Obs.Timeseries.bin_segments ts
              (Obs.Span.reconstruct (Obs.Run.trace_events obs))
        | None -> ())
    | None -> ()
  in
  match measure with
  | Closed { warmup; duration; crashed } ->
      let until = warmup +. duration in
      List.iter (fun id -> Cl.crash t ~at:0.0 id) crashed;
      run_until until;
      let executed =
        Cl.committed_ops_in t ~replica:(probe ~n crashed) ~since:warmup ~until
      in
      {
        clients = Workload.closed_clients params.Cluster.workload;
        throughput = float_of_int executed /. duration;
        latency = Stats.summarize (Cl.latencies_in t ~since:warmup ~until);
        agreement = Cl.check_agreement t;
        executed;
      }
  | Open { warmup; duration } ->
      Sim.schedule_at sim ~time:warmup (fun () -> Cl.open_loop_reset_window t);
      run_until (warmup +. duration);
      let s = Cl.open_loop_stats t in
      {
        workload = Workload.label params.Cluster.workload;
        offered =
          Option.value (Workload.offered_rate params.Cluster.workload) ~default:0.;
        goodput = float_of_int s.Cluster.completed /. duration;
        generated = s.Cluster.generated;
        sent = s.Cluster.sent;
        shed = s.Cluster.shed;
        rejected = s.Cluster.rejected;
        drop_rate =
          (if s.Cluster.generated = 0 then 0.
           else
             float_of_int (s.Cluster.shed + s.Cluster.rejected)
             /. float_of_int s.Cluster.generated);
        peak_occupancy = s.Cluster.peak_occupancy;
        latency = s.Cluster.latency;
        agreement = Cl.check_agreement t;
      }
  | View_change { force_unhappy } ->
      let warm = 2.0 and divergence_window = 0.3 in
      let crash_at = if force_unhappy then warm +. divergence_window else warm in
      let traffic = meter sim net in
      if force_unhappy then
        (* Divergence without timer skew: during the window the doomed
           leader's proposals reach only replica 1. Replica 1 votes for one
           more block than everyone else (so last-voted blocks diverge and
           the next leader's snapshot cannot take the happy path), that
           block's QC never forms, and the blocks before it keep committing
           everywhere — so every replica's view timer stays aligned. *)
        Sim.schedule_at sim ~time:warm (fun () ->
            Netsim.Fault.set_link_filter net
              (Some
                 (fun ~src ~dst (m : Message.t) ->
                   src <> 0
                   ||
                   match m.Message.payload with
                   | Message.Propose _ -> dst = 1
                   | _ -> true)));
      Cl.crash t ~at:crash_at 0;
      Sim.schedule_at sim ~time:crash_at (fun () ->
          Netsim.Fault.set_link_filter net None);
      run_until (crash_at +. (4. *. params.Cluster.base_timeout) +. 5.);
      let vc_start = Option.value (Cl.view_change_start t) ~default:crash_at in
      (* the view change's window closes at replica 1's first commit *)
      let first_commit =
        Option.value (Cl.first_commit_after t ~replica:1 vc_start)
          ~default:infinity
      in
      let vc_messages, vc_bytes, vc_authenticators =
        traffic ~since:vc_start ~until:first_commit
      in
      {
        vc_latency = first_commit -. vc_start;
        unhappy = Cl.pre_prepare_seen t;
        vc_bytes;
        vc_authenticators;
        vc_messages;
      }
  | Scenario sc ->
      let traffic = meter sim net in
      Cl.apply_scenario t sc ~on_byzantine:(Hashtbl.replace plan);
      run_until sc.Faults.Scenario.run_for;
      let probe =
        probe ~n
          (Faults.Scenario.crashed_at_end sc
          @ List.map fst (Faults.Scenario.byzantine sc))
      in
      let settle = sc.Faults.Scenario.settle_at in
      let first_commit = Cl.first_commit_after t ~replica:probe settle in
      (* view-change traffic: first disruption to the recovery commit *)
      let vc_messages, vc_bytes, vc_authenticators =
        traffic
          ~since:(Faults.Scenario.first_fault_at sc)
          ~until:(Option.value first_commit ~default:sc.Faults.Scenario.run_for)
      in
      {
        scenario = sc.Faults.Scenario.name;
        recovered = first_commit <> None;
        recovery_latency =
          (match first_commit with Some c -> c -. settle | None -> -1.);
        vc_messages;
        vc_bytes;
        vc_authenticators;
        committed = Cl.total_executed t ~replica:probe;
        agreement = Cl.check_agreement t;
        latency =
          Stats.summarize
            (Cl.latencies_in t ~since:0. ~until:sc.Faults.Scenario.run_for);
      }

let critical_path ?label obs =
  Obs.Critical_path.analyze ?label (Obs.Span.reconstruct (Obs.Run.trace_events obs))

let profile_json ~label ~sim_seconds (r : throughput_result) obs cp =
  let sent, blocks = Obs.Run.consensus_totals obs in
  let per_block v =
    if blocks = 0 then 0. else float_of_int v /. float_of_int blocks
  in
  J.obj
    [ ("label", J.str label); ("sim_seconds", J.num ~dp:3 sim_seconds);
      ("throughput", throughput_to_json r); ("blocks_committed", J.int blocks);
      ("msgs_per_block", J.num ~dp:4 (per_block sent.Obs.Metrics.msgs));
      ("auths_per_block", J.num ~dp:4 (per_block sent.Obs.Metrics.auths));
      ( "commit_latency",
        summary_json (Obs.Metrics.commit_latency (Obs.Run.metrics obs).(0)) );
      ( "phase_breakdown",
        Option.fold ~none:(J.raw "null") ~some:Obs.Critical_path.to_json cp ) ]

let sweep proto ~params ~warmup ~duration ~client_counts =
  List.map
    (fun clients ->
      run proto
        ~params:{ params with Cluster.workload = Workload.closed_loop ~clients }
        (Closed { warmup; duration; crashed = [] }))
    client_counts

(* The best point by [score] among those [within] the cap. When none is,
   the overall best comes back tagged [`Fallback]: a saturated point, not a
   sustainable one, and the tag forces callers to say so. *)
let best_within ~empty ~score ~within points =
  let best = function
    | [] -> invalid_arg empty
    | first :: rest ->
        List.fold_left
          (fun acc r -> if score r > score acc then r else acc)
          first rest
  in
  match List.filter within points with
  | [] -> (best points, `Fallback)
  | ok -> (best ok, `Within_cap)

let peak ?latency_cap results =
  best_within ~empty:"Experiment.peak: no results"
    ~score:(fun r -> r.throughput)
    ~within:(fun (r : throughput_result) ->
      match latency_cap with None -> true | Some cap -> r.latency.Stats.mean <= cap)
    results

(* ---------- open loop ---------- *)

let with_rate params rate =
  {
    params with
    Cluster.workload = Workload.with_rate params.Cluster.workload ~rate;
  }

let open_loop_sweep proto ~params ~warmup ~duration ~rates =
  List.map
    (fun rate ->
      run proto ~params:(with_rate params rate) (Open { warmup; duration }))
    rates

let knee ?(latency_cap = 1.0) points =
  best_within ~empty:"Experiment.knee: no points"
    ~score:(fun (r : open_loop_result) -> r.goodput)
    ~within:(fun (r : open_loop_result) -> r.latency.Stats.p99 <= latency_cap)
    points

(* ---------- attribution: why the knee is where it is ---------- *)

type attributed_point = {
  point : open_loop_result;
  verdict : Obs.Bottleneck.verdict;
  timeseries : Obs.Timeseries.t;
}

type attribution = {
  protocol : string;
  n : int;
  knee_point : open_loop_result;
  sustainable : bool;
  at_knee : attributed_point;
  past_knee : attributed_point;
}

let attribute_knee ?(window = 0.25) proto ~name ~params ~warmup ~duration
    ~rates =
  (* cheap untraced ladder to locate the knee, then two traced + windowed
     runs: at the knee rate and just past it *)
  let points = open_loop_sweep proto ~params ~warmup ~duration ~rates in
  let k, cap = knee points in
  let past_rate =
    match
      List.filter
        (fun r -> r > k.offered +. 1e-9)
        (List.sort_uniq Float.compare rates)
    with
    | r :: _ -> r
    | [] -> k.offered *. 1.5
  in
  let attributed_at rate =
    let obs =
      Obs.Run.create ~trace:true ~windows:window ~n:params.Cluster.n ()
    in
    let r =
      run proto
        ~params:{ (with_rate params rate) with Cluster.obs = Some obs }
        (Open { warmup; duration })
    in
    let ts = Option.get (Obs.Run.timeseries obs) in
    let verdict =
      Obs.Bottleneck.classify ~drop_rate:r.drop_rate ~shed:r.shed ~rejected:r.rejected
        ~peak_occupancy:r.peak_occupancy ~latency_p99:r.latency.Stats.p99 ts
    in
    { point = r; verdict; timeseries = ts }
  in
  {
    protocol = name;
    n = params.Cluster.n;
    knee_point = k;
    sustainable = (match cap with `Within_cap -> true | `Fallback -> false);
    at_knee = attributed_at k.offered;
    past_knee = attributed_at past_rate;
  }

let attributed_point_to_json ?(windows = false) p =
  J.obj
    ([ ("point", open_loop_to_json p.point);
       ("verdict", Obs.Bottleneck.verdict_to_json p.verdict) ]
    @
    if windows then
      [ ("timeseries", Obs.Timeseries.to_json ~label:"windows" p.timeseries) ]
    else [])

let attribution_to_json a =
  let verdict = a.past_knee.verdict.Obs.Bottleneck.bottleneck in
  J.obj
    [ ("protocol", J.str a.protocol); ("n", J.int a.n);
      ("sustainable", J.bool a.sustainable);
      (* what breaks first: the resource that binds past the knee *)
      ("verdict", J.str (Obs.Bottleneck.name verdict));
      ("knee", open_loop_to_json a.knee_point);
      ("at_knee", attributed_point_to_json a.at_knee);
      ("past_knee", attributed_point_to_json ~windows:true a.past_knee) ]
