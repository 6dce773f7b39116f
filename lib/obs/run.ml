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
      Trace.add b ~time ~replica:src ~view:(-1) ~height:(-1)
        (Trace.Net_queued
           { id; src; dst; size; msg = Message.type_name m; ready; depart; tx })

let net_delivered t ~time ~id ~src ~dst ~size m =
  if dst >= 0 && dst < Array.length t.metrics then
    Metrics.count_recv t.metrics.(dst) ~size m;
  match t.trace with
  | None -> ()
  | Some b ->
      Trace.add b ~time ~replica:dst ~view:(-1) ~height:(-1)
        (Trace.Net_delivered { id; src; dst; size; msg = Message.type_name m })

let fault_injected t ~time ?(target = -1) ~label () =
  match t.trace with
  | None -> ()
  | Some b ->
      Trace.add b ~time ~replica:target ~view:(-1) ~height:(-1)
        (Trace.Fault_injected { label })

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

(* The per-replica rows after the sent/recv counters, in export order:
   each row's name, and its accessor rendering the row kind and every
   cell after the name. *)
let scalar_rows =
  let counter get m = ("counter", Printf.sprintf "%d,,,,,,,,,," (get m)) in
  let hist get m =
    let s : Stats.summary = get m in
    ( "hist",
      Printf.sprintf ",,,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f" s.count s.mean
        s.p50 s.p95 s.p99 s.p999 s.min s.max )
  in
  [
    ("proposals", counter Metrics.proposals);
    ("qcs", counter Metrics.qcs);
    ("blocks_committed", counter Metrics.blocks_committed);
    ("ops_committed", counter Metrics.ops_committed);
    ("view_changes", counter Metrics.view_changes);
    ("timer_fires", counter Metrics.timer_fires);
    ("ops_admitted", counter Metrics.ops_admitted);
    ("ops_duplicate", counter Metrics.ops_duplicate);
    ("ops_rejected_full", counter Metrics.ops_rejected_full);
    ("ops_rejected_client_cap", counter Metrics.ops_rejected_client_cap);
    ("mempool_peak_occupancy", counter Metrics.mempool_peak_occupancy);
    ("commit_latency", hist Metrics.commit_latency);
    ("vc_latency", hist Metrics.vc_latency);
  ]

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
      List.iter
        (fun (name, cells) ->
          let row, rest = cells m in
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%s,%s,%s\n" label replica row name rest))
        scalar_rows)
    t.metrics;
  Buffer.contents buf
