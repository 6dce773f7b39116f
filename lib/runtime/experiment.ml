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

(* -- JSON: one field-list renderer behind every record -- *)

(* Every record's to_json is an [obj] of [fld_*] combinators: field
   names and formats live in exactly one list per record, so adding a
   record (or a field) cannot drift from the others' conventions. *)
let obj fields = "{" ^ String.concat "," fields ^ "}"
let fld_int key v = Printf.sprintf {|"%s":%d|} key v
let fld_float key ~dp v = Printf.sprintf {|"%s":%.*f|} key dp v
let fld_bool key v = Printf.sprintf {|"%s":%b|} key v
let fld_str key v = Printf.sprintf {|"%s":"%s"|} key v
let fld_raw key v = Printf.sprintf {|"%s":%s|} key v

let summary_json (s : Stats.summary) =
  obj
    [
      fld_int "count" s.Stats.count;
      fld_float "mean" ~dp:6 s.Stats.mean;
      fld_float "p50" ~dp:6 s.Stats.p50;
      fld_float "p95" ~dp:6 s.Stats.p95;
      fld_float "p99" ~dp:6 s.Stats.p99;
      fld_float "p999" ~dp:6 s.Stats.p999;
      fld_float "min" ~dp:6 s.Stats.min;
      fld_float "max" ~dp:6 s.Stats.max;
    ]

let throughput_to_json (r : throughput_result) =
  obj
    [
      fld_int "clients" r.clients;
      fld_float "throughput" ~dp:2 r.throughput;
      fld_raw "latency" (summary_json r.latency);
      fld_bool "agreement" r.agreement;
      fld_int "executed" r.executed;
    ]

let view_change_to_json (r : vc_result) =
  obj
    [
      fld_float "vc_latency" ~dp:6 r.vc_latency;
      fld_bool "unhappy" r.unhappy;
      fld_int "vc_bytes" r.vc_bytes;
      fld_int "vc_authenticators" r.vc_authenticators;
      fld_int "vc_messages" r.vc_messages;
    ]

(* recovery_latency is -1 when the cluster never committed again *)
let fault_to_json (r : fault_result) =
  obj
    [
      fld_str "scenario" r.scenario;
      fld_bool "recovered" r.recovered;
      fld_float "recovery_latency" ~dp:6 r.recovery_latency;
      fld_int "vc_messages" r.vc_messages;
      fld_int "vc_bytes" r.vc_bytes;
      fld_int "vc_authenticators" r.vc_authenticators;
      fld_int "committed" r.committed;
      fld_bool "agreement" r.agreement;
      fld_raw "latency" (summary_json r.latency);
    ]

let open_loop_to_json (r : open_loop_result) =
  obj
    [
      fld_str "workload" r.workload;
      fld_float "offered" ~dp:2 r.offered;
      fld_float "goodput" ~dp:2 r.goodput;
      fld_int "generated" r.generated;
      fld_int "sent" r.sent;
      fld_int "shed" r.shed;
      fld_int "rejected" r.rejected;
      fld_float "drop_rate" ~dp:6 r.drop_rate;
      fld_int "peak_occupancy" r.peak_occupancy;
      fld_raw "latency" (summary_json r.latency);
      fld_bool "agreement" r.agreement;
    ]

(* -- pretty printers -- *)

let pp_throughput fmt (r : throughput_result) =
  Format.fprintf fmt
    "clients=%d throughput=%.0f ops/s latency(mean=%.4fs p95=%.4fs) %s"
    r.clients r.throughput r.latency.Stats.mean r.latency.Stats.p95
    (if r.agreement then "agreement=ok" else "AGREEMENT VIOLATED")

let pp_view_change fmt (r : vc_result) =
  Format.fprintf fmt
    "vc_latency=%.4fs path=%s messages=%d bytes=%d authenticators=%d"
    r.vc_latency
    (if r.unhappy then "unhappy" else "happy")
    r.vc_messages r.vc_bytes r.vc_authenticators

let pp_fault fmt (r : fault_result) =
  Format.fprintf fmt
    "%s: %s messages=%d authenticators=%d committed=%d %s" r.scenario
    (if r.recovered then Printf.sprintf "recovered in %.4fs" r.recovery_latency
     else "NEVER RECOVERED")
    r.vc_messages r.vc_authenticators r.committed
    (if r.agreement then "agreement=ok" else "AGREEMENT VIOLATED")

let pp_open_loop fmt (r : open_loop_result) =
  Format.fprintf fmt
    "%s offered=%.0f/s goodput=%.0f/s drop=%.1f%% p99=%.4fs p999=%.4fs \
     peak_occ=%d %s"
    r.workload r.offered r.goodput (100. *. r.drop_rate)
    r.latency.Stats.p99 r.latency.Stats.p999 r.peak_occupancy
    (if r.agreement then "agreement=ok" else "AGREEMENT VIOLATED")

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

(* The machine-readable per-protocol record the bench JSON emitter writes:
   throughput, commit latency, message/authenticator cost per block, and —
   when the run was traced — the critical-path phase breakdown. *)
let profile_json ~label ~sim_seconds (r : throughput_result) obs =
  let metrics = Obs.Run.metrics obs in
  let total_msgs, total_auths =
    Array.fold_left
      (fun (m, a) reg ->
        let c = Obs.Metrics.consensus_sent reg in
        (m + c.Obs.Metrics.msgs, a + c.Obs.Metrics.auths))
      (0, 0) metrics
  in
  let blocks =
    Array.fold_left
      (fun acc reg -> max acc (Obs.Metrics.blocks_committed reg))
      0 metrics
  in
  let per_block v =
    if blocks = 0 then 0. else float_of_int v /. float_of_int blocks
  in
  let breakdown =
    match Obs.Run.trace_events obs with
    | [] -> "null"
    | _ -> Obs.Critical_path.to_json (critical_path ~label obs)
  in
  Printf.sprintf
    {|{"label":"%s","sim_seconds":%.3f,"throughput":%s,"blocks_committed":%d,"msgs_per_block":%.4f,"auths_per_block":%.4f,"commit_latency":%s,"phase_breakdown":%s}|}
    label sim_seconds (throughput_to_json r) blocks (per_block total_msgs)
    (per_block total_auths)
    (summary_json (Obs.Metrics.commit_latency metrics.(0)))
    breakdown

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

let what_breaks_first a = a.past_knee.verdict.Obs.Bottleneck.bottleneck

let attribute_knee ?(latency_cap = 1.0) ?(window = 0.25) ?drop_threshold
    proto ~name ~params ~warmup ~duration ~rates =
  (* cheap untraced ladder to locate the knee, then two traced + windowed
     runs: at the knee rate and just past it *)
  let points = open_loop_sweep proto ~params ~warmup ~duration ~rates in
  let k, cap = knee ~latency_cap points in
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
      Obs.Bottleneck.classify ?drop_threshold ~latency_cap
        ~drop_rate:r.drop_rate ~shed:r.shed ~rejected:r.rejected
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
  obj
    ([
       fld_raw "point" (open_loop_to_json p.point);
       fld_raw "verdict" (Obs.Bottleneck.verdict_to_json p.verdict);
     ]
    @
    if windows then
      [ fld_raw "timeseries" (Obs.Timeseries.to_json ~label:"windows" p.timeseries) ]
    else [])

let attribution_to_json a =
  obj
    [
      fld_str "protocol" a.protocol;
      fld_int "n" a.n;
      fld_bool "sustainable" a.sustainable;
      fld_str "verdict" (Obs.Bottleneck.name (what_breaks_first a));
      fld_raw "knee" (open_loop_to_json a.knee_point);
      fld_raw "at_knee" (attributed_point_to_json a.at_knee);
      fld_raw "past_knee" (attributed_point_to_json ~windows:true a.past_knee);
    ]
