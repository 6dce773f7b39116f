module J = Json_lite

let req what = function
  | Some v -> v
  | None -> failwith (Printf.sprintf "trace line missing %s" what)

let int_field j name = req name (J.int_at [ name ] j)
let float_field j name = req name (J.float_at [ name ] j)
let str_field j name = req name (J.string_at [ name ] j)

let kind_of_json j =
  match str_field j "event" with
  | "propose" -> Trace.Propose { txs = int_field j "txs" }
  | "vote" -> Trace.Vote_sent { phase = str_field j "phase" }
  | "qc-formed" -> Trace.Qc_formed { phase = str_field j "phase" }
  | "commit" ->
      Trace.Commit { blocks = int_field j "blocks"; ops = int_field j "ops" }
  | "view-enter" -> Trace.View_enter { cause = str_field j "cause" }
  | "view-change-enter" -> Trace.View_change_enter
  | "view-change-exit" -> Trace.View_change_exit
  | "timer-armed" ->
      Trace.Timer_armed
        { after = float_field j "after"; cause = str_field j "cause" }
  | "timer-fired" -> Trace.Timer_fired { cause = str_field j "cause" }
  | "net-queued" ->
      Trace.Net_queued
        {
          id = int_field j "id";
          src = int_field j "src";
          dst = int_field j "dst";
          size = int_field j "size";
          msg = str_field j "msg";
          ready = float_field j "ready";
          depart = float_field j "depart";
          tx = float_field j "tx";
        }
  | "net-delivered" ->
      Trace.Net_delivered
        {
          id = int_field j "id";
          src = int_field j "src";
          dst = int_field j "dst";
          size = int_field j "size";
          msg = str_field j "msg";
        }
  | "fault-injected" -> Trace.Fault_injected { label = str_field j "label" }
  | other -> failwith (Printf.sprintf "unknown trace event %S" other)

let parse_line line =
  match J.parse line with
  | Error e -> Error e
  | Ok j -> (
      try
        let run = J.string_at [ "run" ] j in
        let event =
          {
            Trace.time = float_field j "t";
            replica = int_field j "replica";
            view = Option.value ~default:(-1) (J.int_at [ "view" ] j);
            height = Option.value ~default:(-1) (J.int_at [ "height" ] j);
            kind = kind_of_json j;
          }
        in
        Ok (run, event)
      with Failure e -> Error e)

(* lint: allow transitive-impurity -- reads a finished run's trace, outside any simulation *)
let read_channel ic =
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | "" -> go acc (lineno + 1)
    | line -> (
        match parse_line line with
        | Ok entry -> go (entry :: acc) (lineno + 1)
        | Error e ->
            failwith (Printf.sprintf "trace line %d: %s" lineno e))
  in
  go [] 1

(* lint: allow transitive-impurity -- reads a finished run's trace, outside any simulation *)
let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      read_channel ic)

let runs entries =
  (* group by run label, preserving both first-appearance order of labels
     and event order within each label *)
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (run, event) ->
      let label = Option.value ~default:"" run in
      (match Hashtbl.find_opt tbl label with
      | Some l -> Hashtbl.replace tbl label (event :: l)
      | None ->
          order := label :: !order;
          Hashtbl.replace tbl label [ event ]))
    entries;
  List.rev_map
    (fun label -> (label, List.rev (Hashtbl.find tbl label)))
    !order
