type t =
  | Cpu
  | Serialize
  | Nic_queue
  | Propagate
  | Quorum_wait
  | Mempool_backpressure

let name = function
  | Cpu -> "cpu"
  | Serialize -> "serialize"
  | Nic_queue -> "nic-queue"
  | Propagate -> "propagate"
  | Quorum_wait -> "quorum-wait"
  | Mempool_backpressure -> "mempool-backpressure"

let of_component = function
  | Span.Cpu -> Cpu
  | Span.Serialize -> Serialize
  | Span.Nic_queue -> Nic_queue
  | Span.Propagate -> Propagate
  | Span.Quorum_wait -> Quorum_wait

type evidence = {
  windows : int;
  attributed : float;
  shares : (Span.component * float) list;
  drop_rate : float;
  shed : int;
  rejected : int;
  peak_occupancy : int;
  latency_p99 : float;
}

type verdict = { bottleneck : t; evidence : evidence }

(* Drops above 1% of the offered load count as shedding; 1 s is the knee's
   p99 latency cap. *)
let drop_threshold = 0.01
let latency_cap = 1.0

let classify ~drop_rate ~shed ~rejected ~peak_occupancy ~latency_p99 ts =
  let windows = Timeseries.windows ts in
  let totals =
    List.map
      (fun comp ->
        ( comp,
          List.fold_left
            (fun acc w -> acc +. Timeseries.component_seconds w comp)
            0. windows ))
      Span.all_components
  in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. totals in
  let shares =
    List.map
      (fun (c, s) -> (c, if attributed > 0. then s /. attributed else 0.))
      totals
  in
  let bottleneck =
    if attributed <= 0. then
      (* nothing made it to a commit: either the intake refused the load,
         or certificates never formed *)
      if drop_rate > drop_threshold then Mempool_backpressure else Quorum_wait
    else if drop_rate > drop_threshold && latency_p99 <= latency_cap then
      (* the service path still meets the cap, yet goodput is capped by
         drops: admission control binds before any pipeline stage does *)
      Mempool_backpressure
    else
      (* dominant component; strict > keeps ties on the earliest entry of
         Span.all_components, so the verdict is deterministic *)
      let best, _ =
        List.fold_left
          (fun (bc, bs) (c, s) -> if s > bs then (c, s) else (bc, bs))
          (Span.Cpu, -1.) totals
      in
      of_component best
  in
  {
    bottleneck;
    evidence =
      {
        windows = List.length windows;
        attributed;
        shares;
        drop_rate;
        shed;
        rejected;
        peak_occupancy;
        latency_p99;
      };
  }

let verdict_to_json v =
  let open Json_lite in
  let e = v.evidence in
  let share (c, s) = (Span.component_name c, num ~dp:6 s) in
  obj
    [ ("bottleneck", str (name v.bottleneck)); ("windows", int e.windows);
      ("attributed", num ~dp:9 e.attributed);
      ("drop_rate", num ~dp:6 e.drop_rate); ("shed", int e.shed);
      ("rejected", int e.rejected); ("peak_occupancy", int e.peak_occupancy);
      ("latency_p99", num ~dp:6 e.latency_p99);
      ("shares", obj (List.map share e.shares)) ]

let pp_verdict fmt v =
  Format.fprintf fmt "%s (drop=%.1f%% p99=%.3fs occ=%d;" (name v.bottleneck)
    (100. *. v.evidence.drop_rate)
    v.evidence.latency_p99 v.evidence.peak_occupancy;
  List.iter
    (fun (c, s) ->
      if s > 0.0005 then
        Format.fprintf fmt " %s=%.1f%%" (Span.component_name c) (100. *. s))
    v.evidence.shares;
  Format.fprintf fmt ")"
