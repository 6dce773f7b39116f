type t =
  | Closed_loop of { clients : int }
  | Open_loop of { arrival : Arrival.t; key_space : int; sources : int }

let closed_loop ~clients =
  if clients < 1 then invalid_arg "Workload.closed_loop: clients must be >= 1";
  Closed_loop { clients }

let open_loop ?(sources = 8) ~arrival ~key_space () =
  if key_space < 1 then invalid_arg "Workload.open_loop: key_space must be >= 1";
  if sources < 1 then invalid_arg "Workload.open_loop: sources must be >= 1";
  Open_loop { arrival; key_space; sources }

let endpoints = function
  | Closed_loop { clients } -> clients
  | Open_loop { sources; _ } -> sources

let closed_clients = function
  | Closed_loop { clients } -> clients
  | Open_loop _ -> 0

let is_open = function Closed_loop _ -> false | Open_loop _ -> true

let offered_rate = function
  | Closed_loop _ -> None
  | Open_loop { arrival; _ } -> Some (Arrival.mean_rate arrival)

let with_rate t ~rate =
  match t with
  | Closed_loop _ -> invalid_arg "Workload.with_rate: closed-loop workload"
  | Open_loop o ->
      Open_loop { o with arrival = Arrival.with_mean_rate o.arrival ~rate }

let label = function
  | Closed_loop { clients } -> Printf.sprintf "closed(%d clients)" clients
  | Open_loop { arrival; key_space; sources } ->
      Printf.sprintf "open(%s keys=%d sources=%d)" (Arrival.label arrival)
        key_space sources

