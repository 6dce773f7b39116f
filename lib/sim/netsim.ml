type config = {
  latency : float;
  jitter : float;
  bandwidth_bps : float;
}

let default_config = { latency = 0.040; jitter = 0.001; bandwidth_bps = 200e6 }

type stats = { messages : int; bytes : int; authenticators : int }

(* Injected network faults, grouped so [Fault.heal] can clear them in one
   place. [group_of] encodes a partition as a group index per endpoint
   (-1 = unlisted, may talk to anyone); the probabilistic knobs draw from
   the simulation RNG only when non-zero, so fault-free runs consume the
   exact same random stream as before the fault layer existed. *)
type fault_state = {
  mutable group_of : int array option;
  mutable drop_fraction : float;
  mutable duplicate_fraction : float;
  mutable extra_delay : float;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  config : config;
  handlers : (src:int -> Marlin_types.Message.t -> unit) option array;
  nic_free : float array; (* uplink FIFO: time each endpoint's NIC frees up *)
  crashed : bool array;
  faults : fault_state;
  mutable link_filter :
    (src:int -> dst:int -> Marlin_types.Message.t -> bool) option;
  mutable meter :
    (src:int -> dst:int -> size:int -> Marlin_types.Message.t -> unit) option;
  mutable obs : Marlin_obs.Run.t option;
  (* [stats], bumped in place once per accepted copy *)
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable sent_auths : int;
  mutable next_id : int; (* unique per accepted send; pairs queue/deliver *)
}

let validate config =
  let reject field need =
    invalid_arg (Printf.sprintf "Netsim.create: %s must be %s" field need)
  in
  List.iter
    (fun (field, x) ->
      if not (Float.is_finite x && x >= 0.) then reject field "finite and >= 0")
    [ ("latency", config.latency); ("jitter", config.jitter) ];
  (* NaN fails the comparison too; infinity is an unlimited uplink *)
  if not (config.bandwidth_bps > 0.) then reject "bandwidth_bps" "> 0"

let create sim rng config ~endpoints =
  validate config;
  {
    sim;
    rng;
    config;
    handlers = Array.make endpoints None;
    nic_free = Array.make endpoints 0.;
    crashed = Array.make endpoints false;
    faults =
      {
        group_of = None;
        drop_fraction = 0.;
        duplicate_fraction = 0.;
        extra_delay = 0.;
      };
    link_filter = None;
    meter = None;
    obs = None;
    sent_msgs = 0;
    sent_bytes = 0;
    sent_auths = 0;
    next_id = 0;
  }

let register t ~id handler = t.handlers.(id) <- Some handler

let deliver ?(observe = true) t ~id ~src ~dst ~size msg =
  (match t.obs with
  | Some run when observe ->
      Marlin_obs.Run.net_delivered run ~time:(Sim.now t.sim) ~id ~src ~dst ~size
        msg
  | _ -> ());
  if not t.crashed.(dst) then
    match t.handlers.(dst) with
    | Some handler -> handler ~src msg
    | None -> ()

(* May [src] and [dst] exchange messages under the current partition?
   Endpoints in no group (index -1, e.g. clients) may talk to anyone. *)
let partition_allows t ~src ~dst =
  match t.faults.group_of with
  | None -> true
  | Some groups ->
      let g s = if s >= 0 && s < Array.length groups then groups.(s) else -1 in
      let gs = g src and gd = g dst in
      gs < 0 || gd < 0 || gs = gd

(* One (src, dst) copy of a message, for every sender: the filter,
   partition and loss checks, then stats, metering, the queue/deliver
   pairing id, the [net-queued] trace event, NIC charging and the per-copy
   randomness (jitter, duplication). Returns the copy's arrival time, or
   [infinity] when it is not accepted; the accepted copy's id is
   [t.next_id - 1]. [auths] is the message's authenticator count, computed
   once per broadcast. Self sends arrive at [earliest] with no network
   cost. A network duplicate arrives after the original; with [~dup:true]
   its delivery is scheduled here, with [~dup:false] only its draws are
   made, since a receiver that handles arrival itself has the original's
   earlier instant. *)
let admit t ~dup ~now ~earliest ~auths ~src ~dst ~size msg =
  let allowed =
    (match t.link_filter with None -> true | Some f -> f ~src ~dst msg)
    && partition_allows t ~src ~dst
    && not
         (t.faults.drop_fraction > 0.
         && src <> dst
         && Rng.bool t.rng t.faults.drop_fraction)
  in
  if not allowed then infinity
  else begin
    t.sent_msgs <- t.sent_msgs + 1;
    t.sent_bytes <- t.sent_bytes + size;
    t.sent_auths <- t.sent_auths + auths;
    (match t.meter with Some f -> f ~src ~dst ~size msg | None -> ());
    let id = t.next_id in
    t.next_id <- id + 1;
    if src = dst then begin
      (match t.obs with
      | Some run ->
          Marlin_obs.Run.net_queued run ~time:now ~id ~src ~dst ~size
            ~ready:earliest ~depart:earliest ~tx:0. msg
      | None -> ());
      earliest
    end
    else begin
      let depart = Float.max earliest t.nic_free.(src) in
      (* x /. infinity = 0., so an unbounded uplink costs nothing. *)
      let tx = float_of_int (8 * size) /. t.config.bandwidth_bps in
      t.nic_free.(src) <- depart +. tx;
      let jitter = Rng.float t.rng t.config.jitter in
      (match t.obs with
      | Some run ->
          Marlin_obs.Run.net_queued run ~time:now ~id ~src ~dst ~size
            ~ready:earliest ~depart ~tx msg
      | None -> ());
      let arrival =
        depart +. tx +. t.config.latency +. jitter +. t.faults.extra_delay
      in
      (* Duplication happens in the network, past the NIC: the copy rides
         its own propagation jitter and skips the observability hooks so
         queue/deliver trace pairing stays exact. *)
      if
        t.faults.duplicate_fraction > 0.
        && Rng.bool t.rng t.faults.duplicate_fraction
      then begin
        let dup_jitter = Rng.float t.rng (Float.max t.config.jitter 1e-4) in
        if dup then
          Sim.schedule_at t.sim ~time:(arrival +. dup_jitter) (fun () ->
              deliver ~observe:false t ~id ~src ~dst ~size msg)
      end;
      arrival
    end
  end

let transmit t ~now ~earliest ~auths ~src ~dst ~size msg =
  let arrival = admit t ~dup:true ~now ~earliest ~auths ~src ~dst ~size msg in
  if Float.is_finite arrival then begin
    let id = t.next_id - 1 in
    Sim.schedule_at t.sim ~time:arrival (fun () ->
        deliver t ~id ~src ~dst ~size msg)
  end

let earliest_of t earliest =
  let now = Sim.now t.sim in
  match earliest with None -> now | Some e -> Float.max e now

let send t ?earliest ~src ~dst ~size msg =
  if not t.crashed.(src) then
    let auths = Marlin_types.Message.authenticators msg in
    transmit t ~now:(Sim.now t.sim) ~earliest:(earliest_of t earliest) ~auths
      ~src ~dst ~size msg

let post t ?earliest ~src ~dst ~size msg =
  if t.crashed.(src) then infinity
  else
    let auths = Marlin_types.Message.authenticators msg in
    admit t ~dup:false ~now:(Sim.now t.sim) ~earliest:(earliest_of t earliest)
      ~auths ~src ~dst ~size msg

let broadcast t ?earliest ~src ~dsts ~size msg =
  if not t.crashed.(src) then begin
    let now = Sim.now t.sim in
    let earliest = earliest_of t earliest in
    let auths = Marlin_types.Message.authenticators msg in
    Array.iter
      (fun dst -> transmit t ~now ~earliest ~auths ~src ~dst ~size msg)
      dsts
  end

module Fault = struct
  let crash t ~id = t.crashed.(id) <- true
  let recover t ~id = t.crashed.(id) <- false
  let is_crashed t ~id = t.crashed.(id)
  let set_link_filter t f = t.link_filter <- f

  let partition t groups =
    let size = Array.length t.handlers in
    let assignment = Array.make size (-1) in
    List.iteri
      (fun g members ->
        List.iter
          (fun ep ->
            if ep < 0 || ep >= size then
              invalid_arg
                (Printf.sprintf "Netsim.Fault.partition: endpoint %d not in [0, %d)"
                   ep size);
            if assignment.(ep) >= 0 then
              invalid_arg
                (Printf.sprintf
                   "Netsim.Fault.partition: endpoint %d in two groups" ep);
            assignment.(ep) <- g)
          members)
      groups;
    t.faults.group_of <- Some assignment

  let drop_fraction t ~p =
    if p < 0. || p >= 1. then
      invalid_arg "Netsim.Fault.drop_fraction: p must be in [0, 1)";
    t.faults.drop_fraction <- p

  let duplicate t ~p =
    if p < 0. || p >= 1. then
      invalid_arg "Netsim.Fault.duplicate: p must be in [0, 1)";
    t.faults.duplicate_fraction <- p

  let delay_links t ~extra =
    if not (Float.is_finite extra && extra >= 0.) then
      invalid_arg "Netsim.Fault.delay_links: extra must be finite and >= 0";
    t.faults.extra_delay <- extra

  let heal t =
    t.faults.group_of <- None;
    t.faults.drop_fraction <- 0.;
    t.faults.duplicate_fraction <- 0.;
    t.faults.extra_delay <- 0.
end

let on_send t f = t.meter <- f
let set_obs t run = t.obs <- run
let stats t =
  { messages = t.sent_msgs; bytes = t.sent_bytes; authenticators = t.sent_auths }

let reset_stats t =
  t.sent_msgs <- 0;
  t.sent_bytes <- 0;
  t.sent_auths <- 0
