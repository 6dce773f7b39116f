type kind =
  | Propose of { txs : int }
  | Vote_sent of { phase : string }
  | Qc_formed of { phase : string }
  | Commit of { blocks : int; ops : int }
  | View_enter of { cause : string }
  | View_change_enter
  | View_change_exit
  | Timer_armed of { after : float; cause : string }
  | Timer_fired of { cause : string }
  | Net_queued of {
      id : int;
      src : int;
      dst : int;
      size : int;
      msg : string;
      ready : float;
      depart : float;
      tx : float;
    }
  | Net_delivered of { id : int; src : int; dst : int; size : int; msg : string }
  | Fault_injected of { label : string }

type event = {
  time : float;
  replica : int;
  view : int;
  height : int;
  kind : kind;
}

let kind_name = function
  | Propose _ -> "propose"
  | Vote_sent _ -> "vote"
  | Qc_formed _ -> "qc-formed"
  | Commit _ -> "commit"
  | View_enter _ -> "view-enter"
  | View_change_enter -> "view-change-enter"
  | View_change_exit -> "view-change-exit"
  | Timer_armed _ -> "timer-armed"
  | Timer_fired _ -> "timer-fired"
  | Net_queued _ -> "net-queued"
  | Net_delivered _ -> "net-delivered"
  | Fault_injected _ -> "fault-injected"

(* The per-kind payload, as JSON fields after the event's stamp. *)
let payload =
  let open Json_lite in
  let link id src dst size msg =
    [ ("id", int id); ("src", int src); ("dst", int dst); ("size", int size);
      ("msg", str msg) ]
  in
  function
  | Propose { txs } -> [ ("txs", int txs) ]
  | Vote_sent { phase } | Qc_formed { phase } -> [ ("phase", str phase) ]
  | Commit { blocks; ops } -> [ ("blocks", int blocks); ("ops", int ops) ]
  | View_enter { cause } | Timer_fired { cause } -> [ ("cause", str cause) ]
  | View_change_enter | View_change_exit -> []
  | Timer_armed { after; cause } ->
      [ ("after", num ~dp:6 after); ("cause", str cause) ]
  | Net_queued { id; src; dst; size; msg; ready; depart; tx } ->
      link id src dst size msg
      @ [ ("ready", num ~dp:9 ready); ("depart", num ~dp:9 depart);
          ("tx", num ~dp:9 tx) ]
  | Net_delivered { id; src; dst; size; msg } -> link id src dst size msg
  | Fault_injected { label } -> [ ("label", str label) ]

let to_json ?run e =
  let open Json_lite in
  let run = match run with None -> [] | Some r -> [ ("run", str r) ] in
  let context =
    if e.view < 0 then []
    else [ ("view", int e.view); ("height", int e.height) ]
  in
  obj
    (run
    @ [ ("t", num ~dp:9 e.time); ("replica", int e.replica);
        ("event", str (kind_name e.kind)) ]
    @ context @ payload e.kind)

type buffer = { mutable rev_events : event list }

let create_buffer () = { rev_events = [] }

let add b ~time ~replica ~view ~height kind =
  b.rev_events <- { time; replica; view; height; kind } :: b.rev_events

let events b = List.rev b.rev_events

(* lint: allow transitive-impurity -- exporter: writes to the caller's channel after the run *)
let write_jsonl ?run oc b =
  List.iter
    (fun e ->
      output_string oc (to_json ?run e);
      output_char oc '\n')
    (events b)
