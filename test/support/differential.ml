(* Run comparer: runs a protocol, workload and seed, records everything
   the simulation exposes — the trace event stream (as JSONL), the
   per-replica metrics CSV, the network totals, and every replica's
   execution/commit state — and compares two such outcomes field by field.
   Any divergence is reported with the first mismatching trace line so the
   offending event is immediately visible. *)

module C = Marlin_core.Consensus_intf
module Cluster = Marlin_runtime.Cluster
module Netsim = Marlin_sim.Netsim
module Obs = Marlin_obs

type faults = { drop : float; duplicate : float; extra_delay : float }

let no_faults = { drop = 0.; duplicate = 0.; extra_delay = 0. }

(* Everything observable about one run, in comparable form. *)
type outcome = {
  trace : string list;  (* Trace.to_json per event, in emission order *)
  metrics : string;  (* Run.metrics_csv *)
  stats : Netsim.stats;
  executed : int list;  (* total_executed per replica *)
  heads : (int * int) list;  (* (committed height, committed count) *)
  agreement : bool;
}

let run (module P : C.PROTOCOL) ~n ~f ~clients ~seed ~until ~faults =
  let module Cl = Cluster.Make (P) in
  let obs = Obs.Run.create ~trace:true ~n () in
  let params =
    {
      Cluster.default_params with
      Cluster.n;
      f;
      workload = Marlin_workload.Workload.closed_loop ~clients;
      seed;
      obs = Some obs;
    }
  in
  let t = Cl.create params in
  if faults.drop > 0. then Netsim.Fault.drop_fraction (Cl.net t) ~p:faults.drop;
  if faults.duplicate > 0. then
    Netsim.Fault.duplicate (Cl.net t) ~p:faults.duplicate;
  if faults.extra_delay > 0. then
    Netsim.Fault.delay_links (Cl.net t) ~extra:faults.extra_delay;
  Cl.run t ~until;
  let heads =
    List.init n (fun i ->
        let p = Cl.protocol t i in
        ((P.committed_head p).Marlin_types.Block.height, P.committed_count p))
  in
  {
    trace = List.map Obs.Trace.to_json (Obs.Run.trace_events obs);
    metrics = Obs.Run.metrics_csv obs;
    stats = Netsim.stats (Cl.net t);
    executed = List.init n (fun i -> Cl.total_executed t ~replica:i);
    heads;
    agreement = Cl.check_agreement t;
  }

(* First index at which two string lists differ, with both sides. *)
let first_trace_diff a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end of trace>")
    | [], y :: _ -> Some (i, "<end of trace>", y)
    | x :: a, y :: b -> if String.equal x y then go (i + 1) a b else Some (i, x, y)
  in
  go 0 a b

(* [Ok ()] when outcome [b] is bit-identical to outcome [a], [Error msg]
   naming the first difference otherwise; a trace difference is reported
   as "trace diverges at event <index>". *)
let compare a b =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let stats (s : Netsim.stats) =
    Printf.sprintf "{msgs=%d; bytes=%d; auths=%d}" s.messages s.bytes
      s.authenticators
  in
  let ints l = String.concat ";" (List.map string_of_int l) in
  match first_trace_diff a.trace b.trace with
  | Some (i, x, y) ->
      err "trace diverges at event %d (of %d a / %d b)@.  a: %s@.  b: %s" i
        (List.length a.trace) (List.length b.trace) x y
  | None ->
      if not (String.equal a.metrics b.metrics) then
        err "metrics CSV diverges:@.  a: %s@.  b: %s" a.metrics b.metrics
      else if a.stats <> b.stats then
        err "netsim stats diverge: a %s b %s" (stats a.stats) (stats b.stats)
      else if not (List.equal Int.equal a.executed b.executed) then
        err "executed-op counts diverge: a [%s] b [%s]" (ints a.executed)
          (ints b.executed)
      else if a.heads <> b.heads then err "committed heads diverge"
      else if a.agreement <> b.agreement then
        err "agreement diverges: a %b b %b" a.agreement b.agreement
      else Ok ()
