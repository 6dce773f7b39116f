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

(* The per-kind payload as JSON fields, leading comma included. *)
let kind_fields = function
  | Propose { txs } -> Printf.sprintf {|,"txs":%d|} txs
  | Vote_sent { phase } | Qc_formed { phase } ->
      Printf.sprintf {|,"phase":"%s"|} phase
  | Commit { blocks; ops } -> Printf.sprintf {|,"blocks":%d,"ops":%d|} blocks ops
  | View_enter { cause } -> Printf.sprintf {|,"cause":"%s"|} cause
  | View_change_enter | View_change_exit -> ""
  | Timer_armed { after; cause } ->
      Printf.sprintf {|,"after":%.6f,"cause":"%s"|} after cause
  | Timer_fired { cause } -> Printf.sprintf {|,"cause":"%s"|} cause
  | Net_queued { id; src; dst; size; msg; ready; depart; tx } ->
      Printf.sprintf
        {|,"id":%d,"src":%d,"dst":%d,"size":%d,"msg":"%s","ready":%.9f,"depart":%.9f,"tx":%.9f|}
        id src dst size msg ready depart tx
  | Net_delivered { id; src; dst; size; msg } ->
      Printf.sprintf {|,"id":%d,"src":%d,"dst":%d,"size":%d,"msg":"%s"|} id src
        dst size msg
  | Fault_injected { label } -> Printf.sprintf {|,"label":"%s"|} label

let to_json e =
  let context =
    if e.view < 0 then ""
    else Printf.sprintf {|,"view":%d,"height":%d|} e.view e.height
  in
  Printf.sprintf {|{"t":%.9f,"replica":%d,"event":"%s"%s%s}|} e.time e.replica
    (kind_name e.kind) context (kind_fields e.kind)

type buffer = { mutable rev_events : event list; mutable count : int }

let create_buffer () = { rev_events = []; count = 0 }

let add b e =
  b.rev_events <- e :: b.rev_events;
  b.count <- b.count + 1

let events b = List.rev b.rev_events

(* lint: allow transitive-impurity -- exporter: writes to the caller's channel after the run *)
let write_jsonl ?run oc b =
  let run_field =
    match run with
    | None -> ""
    | Some name -> Printf.sprintf {|"run":"%s",|} name
  in
  List.iter
    (fun e ->
      let json = to_json e in
      (* splice the run label just inside the opening brace *)
      output_string oc "{";
      output_string oc run_field;
      output_string oc (String.sub json 1 (String.length json - 1));
      output_char oc '\n')
    (events b)
