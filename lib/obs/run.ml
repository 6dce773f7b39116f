module Stats = Marlin_analysis.Stats
module Message = Marlin_types.Message

type t = {
  trace : Trace.buffer option;
  metrics : Metrics.t array;
  ts : Timeseries.t option;
}

let create ?(trace = false) ?windows ~n () =
  {
    trace = (if trace then Some (Trace.create_buffer ()) else None);
    metrics = Array.init n (fun replica -> Metrics.create ~replica);
    ts = (match windows with
         | None -> None
         | Some width -> Some (Timeseries.create ~width ()));
  }

let sink t ~clock ~replica =
  Sink.make ~replica ~clock ?trace:t.trace ?ts:t.ts
    ~metrics:t.metrics.(replica) ()

let handle t ~clock ~replica = Some (sink t ~clock ~replica)
let metrics t = t.metrics
let timeseries t = t.ts

let trace_events t =
  match t.trace with None -> [] | Some b -> Trace.events b

let consensus_totals t =
  let sum = { Metrics.msgs = 0; bytes = 0; auths = 0 } in
  let add blocks m =
    let c = Metrics.consensus_sent m in
    sum.msgs <- sum.msgs + c.msgs;
    sum.bytes <- sum.bytes + c.bytes;
    sum.auths <- sum.auths + c.auths;
    Int.max blocks (Metrics.blocks_committed m)
  in
  let blocks = Array.fold_left add 0 t.metrics in
  (sum, blocks)

(* -- network-layer hooks -- *)

let net_queued t ~time ~id ~src ~dst ~size ~ready ~depart ~tx m =
  if src >= 0 && src < Array.length t.metrics then
    Metrics.count_sent t.metrics.(src) ~size m;
  (match t.ts with
  | None -> ()
  | Some ts ->
      (* uplink-FIFO wait ahead of this message: CPU handoff to departure *)
      Timeseries.note_nic_backlog ts ~time:ready ~backlog:(depart -. ready));
  match t.trace with
  | None -> ()
  | Some b ->
      Trace.add b
        { Trace.time; replica = src; view = -1; height = -1;
          kind = Trace.Net_queued
              { id; src; dst; size; msg = Message.type_name m; ready; depart; tx } }

let net_delivered t ~time ~id ~src ~dst ~size m =
  if dst >= 0 && dst < Array.length t.metrics then
    Metrics.count_recv t.metrics.(dst) ~size m;
  match t.trace with
  | None -> ()
  | Some b ->
      Trace.add b
        { Trace.time; replica = dst; view = -1; height = -1;
          kind = Trace.Net_delivered
              { id; src; dst; size; msg = Message.type_name m } }

let fault_injected t ~time ?(target = -1) ~label () =
  match t.trace with
  | None -> ()
  | Some b ->
      Trace.add b
        { Trace.time; replica = target; view = -1; height = -1;
          kind = Trace.Fault_injected { label } }

(* -- exporters -- *)

(* lint: allow transitive-impurity -- exporter: writes to the caller's channel after the run *)
let write_trace ?run oc t =
  match t.trace with None -> () | Some b -> Trace.write_jsonl ?run oc b

let metrics_csv_header =
  "label,replica,row,name,msgs,bytes,auths,count,mean,p50,p95,p99,p999,min,max"

let csv_counter_row buf ~label ~replica ~row ~name (c : Metrics.dir_counter) =
  Buffer.add_string buf
    (Printf.sprintf "%s,%d,%s,%s,%d,%d,%d,,,,,,,,\n" label replica row name
       c.Metrics.msgs c.Metrics.bytes c.Metrics.auths)

let csv_event_row buf ~label ~replica ~name value =
  Buffer.add_string buf
    (Printf.sprintf "%s,%d,counter,%s,%d,,,,,,,,,,\n" label replica name value)

let csv_hist_row buf ~label ~replica ~name (s : Stats.summary) =
  Buffer.add_string buf
    (Printf.sprintf "%s,%d,hist,%s,,,,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n"
       label replica name s.Stats.count s.Stats.mean s.Stats.p50 s.Stats.p95
       s.Stats.p99 s.Stats.p999 s.Stats.min s.Stats.max)

let metrics_csv ?(label = "run") t =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun m ->
      let replica = Metrics.replica m in
      List.iter
        (fun kind ->
          csv_counter_row buf ~label ~replica ~row:"sent" ~name:kind
            (Metrics.sent m ~kind);
          csv_counter_row buf ~label ~replica ~row:"recv" ~name:kind
            (Metrics.recv m ~kind))
        (Metrics.kinds m);
      csv_event_row buf ~label ~replica ~name:"proposals" (Metrics.proposals m);
      csv_event_row buf ~label ~replica ~name:"qcs" (Metrics.qcs m);
      csv_event_row buf ~label ~replica ~name:"blocks_committed"
        (Metrics.blocks_committed m);
      csv_event_row buf ~label ~replica ~name:"ops_committed"
        (Metrics.ops_committed m);
      csv_event_row buf ~label ~replica ~name:"view_changes"
        (Metrics.view_changes m);
      csv_event_row buf ~label ~replica ~name:"timer_fires"
        (Metrics.timer_fires m);
      csv_event_row buf ~label ~replica ~name:"ops_admitted"
        (Metrics.ops_admitted m);
      csv_event_row buf ~label ~replica ~name:"ops_duplicate"
        (Metrics.ops_duplicate m);
      csv_event_row buf ~label ~replica ~name:"ops_rejected_full"
        (Metrics.ops_rejected_full m);
      csv_event_row buf ~label ~replica ~name:"ops_rejected_client_cap"
        (Metrics.ops_rejected_client_cap m);
      csv_event_row buf ~label ~replica ~name:"mempool_peak_occupancy"
        (Metrics.mempool_peak_occupancy m);
      csv_hist_row buf ~label ~replica ~name:"commit_latency"
        (Metrics.commit_latency m);
      csv_hist_row buf ~label ~replica ~name:"vc_latency"
        (Metrics.vc_latency m))
    t.metrics;
  Buffer.contents buf
