type t = {
  replica : int;
  clock : unit -> float;
  trace : Trace.buffer option;
  metrics : Metrics.t;
  ts : Timeseries.t option;
}

type handle = t option

let none : handle = None

let make ~replica ~clock ?trace ?ts ~metrics () =
  { replica; clock; trace; metrics; ts }
let enabled = function None -> false | Some _ -> true
let tracing = function None -> false | Some s -> s.trace <> None

(* Event values (the [Trace.kind] payloads) are only built inside a
   [Some buf] branch: a metrics-only sink must not allocate per emission,
   so every function below checks [s.trace] *before* constructing the
   kind. Serialization to JSONL happens later still, at export. *)

let propose h ~view ~height ~txs =
  match h with
  | None -> ()
  | Some s -> (
      let time = s.clock () in
      Metrics.note_propose s.metrics;
      Metrics.note_proposal_seen s.metrics ~height ~time;
      match s.trace with
      | Some buf ->
          Trace.add buf ~time ~replica:s.replica ~view ~height
            (Trace.Propose { txs })
      | None -> ())

let vote h ~view ~height ~phase =
  match h with
  | None -> ()
  | Some s -> (
      let time = s.clock () in
      Metrics.note_proposal_seen s.metrics ~height ~time;
      match s.trace with
      | Some buf ->
          Trace.add buf ~time ~replica:s.replica ~view ~height
            (Trace.Vote_sent { phase })
      | None -> ())

let qc_formed h ~view ~height ~phase =
  match h with
  | None -> ()
  | Some s -> (
      let time = s.clock () in
      Metrics.note_qc s.metrics;
      match s.trace with
      | Some buf ->
          Trace.add buf ~time ~replica:s.replica ~view ~height
            (Trace.Qc_formed { phase })
      | None -> ())

let commit h ~view ~height ~blocks ~ops =
  match h with
  | None -> ()
  | Some s -> (
      let time = s.clock () in
      Metrics.note_commit s.metrics ~height ~blocks ~ops ~time;
      match s.trace with
      | Some buf ->
          Trace.add buf ~time ~replica:s.replica ~view ~height
            (Trace.Commit { blocks; ops })
      | None -> ())

let view_enter h ~view ~cause =
  match h with
  | None -> ()
  | Some s -> (
      match s.trace with
      | Some buf ->
          Trace.add buf ~time:(s.clock ()) ~replica:s.replica ~view ~height:(-1)
            (Trace.View_enter { cause })
      | None -> ())

let view_change_enter h ~view =
  match h with
  | None -> ()
  | Some s -> (
      let time = s.clock () in
      Metrics.note_view_change_enter s.metrics ~time;
      match s.trace with
      | Some buf ->
          Trace.add buf ~time ~replica:s.replica ~view ~height:(-1)
            Trace.View_change_enter
      | None -> ())

let view_change_exit h ~view =
  match h with
  | None -> ()
  | Some s -> (
      let time = s.clock () in
      Metrics.note_view_change_exit s.metrics ~time;
      match s.trace with
      | Some buf ->
          Trace.add buf ~time ~replica:s.replica ~view ~height:(-1)
            Trace.View_change_exit
      | None -> ())

(* Metrics only — admissions are per-operation and would swamp the trace
   buffer; occupancy/drop counters are what overload analysis needs. *)
let mempool_admission h result ~occupancy =
  match h with
  | None -> ()
  | Some s -> (
      Metrics.note_admission s.metrics result ~occupancy;
      match s.ts with
      | None -> ()
      | Some ts ->
          Timeseries.note_admission ts ~time:(s.clock ()) result ~occupancy)

let timer_armed h ~view ~after ~cause =
  match h with
  | None -> ()
  | Some s -> (
      match s.trace with
      | Some buf ->
          Trace.add buf ~time:(s.clock ()) ~replica:s.replica ~view ~height:(-1)
            (Trace.Timer_armed { after; cause })
      | None -> ())

let timer_fired h ~view ~cause =
  match h with
  | None -> ()
  | Some s -> (
      Metrics.note_timer_fired s.metrics;
      match s.trace with
      | Some buf ->
          Trace.add buf ~time:(s.clock ()) ~replica:s.replica ~view ~height:(-1)
            (Trace.Timer_fired { cause })
      | None -> ())
