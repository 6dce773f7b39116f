type behaviour = Equivocator | Silent_leader | Vote_withholder | Stale_qc_voter

let behaviour_label = function
  | Equivocator -> "equivocator"
  | Silent_leader -> "silent-leader"
  | Vote_withholder -> "vote-withholder"
  | Stale_qc_voter -> "stale-qc-voter"

type event =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal
  | Delay_links of float
  | Drop_fraction of float
  | Duplicate of float
  | Byzantine of int * behaviour

let event_label = function
  | Crash id -> Printf.sprintf "crash %d" id
  | Recover id -> Printf.sprintf "recover %d" id
  | Partition groups ->
      Printf.sprintf "partition %s"
        (String.concat "|"
           (List.map
              (fun g -> String.concat "," (List.map string_of_int g))
              groups))
  | Heal -> "heal"
  | Delay_links d -> Printf.sprintf "delay-links %.3f" d
  | Drop_fraction p -> Printf.sprintf "drop-fraction %.2f" p
  | Duplicate p -> Printf.sprintf "duplicate %.2f" p
  | Byzantine (id, b) -> Printf.sprintf "byzantine %d %s" id (behaviour_label b)

let event_target = function
  | Crash id | Recover id | Byzantine (id, _) -> id
  | Partition _ | Heal | Delay_links _ | Drop_fraction _ | Duplicate _ -> -1

type step = { at : float; event : event }

type t = {
  name : string;
  info : string;
  f : int;
  steps : step list;
  settle_at : float;
  run_for : float;
}

let make ~name ~info ?(f = 1) ?(steps = []) ~settle_at ~run_for () =
  if run_for <= settle_at then
    invalid_arg "Scenario.make: run_for must exceed settle_at";
  List.iter
    (fun s -> if s.at < 0. then invalid_arg "Scenario.make: negative step time")
    steps;
  let steps = List.stable_sort (fun a b -> Float.compare a.at b.at) steps in
  { name; info; f; steps; settle_at; run_for }

let at time event = { at = time; event }

let byzantine t =
  List.filter_map
    (fun s -> match s.event with Byzantine (id, b) -> Some (id, b) | _ -> None)
    t.steps

let has_byzantine t =
  match byzantine t with [] -> false | _ :: _ -> true

let crashed_at_end t =
  (* ids crashed by the script and never recovered (steps are sorted) *)
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun s ->
      match s.event with
      | Crash id -> Hashtbl.replace tbl id true
      | Recover id -> Hashtbl.replace tbl id false
      | _ -> ())
    t.steps;
  Hashtbl.fold (fun id dead acc -> if dead then id :: acc else acc) tbl []
  |> List.sort Int.compare

let first_fault_at t =
  let byz_free =
    List.filter (fun s -> match s.event with Byzantine _ -> false | _ -> true)
      t.steps
  in
  match byz_free with
  | [] -> t.settle_at (* purely Byzantine scenario: misbehaviour is live from the start *)
  | s :: _ -> s.at
