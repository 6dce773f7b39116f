(* Tests for the open-loop workload engine: arrival-process constructors
   and samplers, the typed Workload.t, the open-loop driver with its
   drop accounting, the knee finder, and end-to-end determinism. *)

module Cluster = Marlin_runtime.Cluster
module Mempool = Marlin_runtime.Mempool
module Experiment = Marlin_runtime.Experiment
module Workload = Marlin_workload.Workload
module Arrival = Marlin_workload.Arrival
module Rng = Marlin_sim.Rng
module Netsim = Marlin_sim.Netsim
module Sim_disk = Marlin_store.Sim_disk
module Stats = Marlin_analysis.Stats

let marlin : Marlin_core.Consensus_intf.protocol =
  (module Marlin_runtime.Registry.Chained_marlin)

(* ---------- constructors validate ---------- *)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

let test_constructor_validation () =
  Alcotest.(check bool) "poisson rate 0" true
    (raises_invalid (fun () -> Arrival.poisson ~rate:0.));
  Alcotest.(check bool) "poisson rate nan" true
    (raises_invalid (fun () -> Arrival.poisson ~rate:Float.nan));
  Alcotest.(check bool) "mmpp negative dwell" true
    (raises_invalid (fun () ->
         Arrival.mmpp ~rate_low:10. ~rate_high:100. ~dwell_low:(-1.)
           ~dwell_high:1.));
  Alcotest.(check bool) "ramp zero duration" true
    (raises_invalid (fun () -> Arrival.ramp ~rate_from:1. ~rate_to:2. ~over:0.));
  Alcotest.(check bool) "closed loop needs a client" true
    (raises_invalid (fun () -> Workload.closed_loop ~clients:0));
  Alcotest.(check bool) "open loop needs keys" true
    (raises_invalid (fun () ->
         Workload.open_loop ~arrival:(Arrival.poisson ~rate:1.) ~key_space:0 ()));
  Alcotest.(check bool) "open loop needs sources" true
    (raises_invalid (fun () ->
         Workload.open_loop ~sources:0 ~arrival:(Arrival.poisson ~rate:1.)
           ~key_space:1 ()));
  Alcotest.(check bool) "mempool capacity < 1" true
    (raises_invalid (fun () -> Mempool.Config.make ~capacity:0 ()));
  Alcotest.(check bool) "with_rate on a closed loop" true
    (raises_invalid (fun () ->
         Workload.with_rate (Workload.closed_loop ~clients:4) ~rate:10.))

(* ---------- samplers: determinism and mean rate ---------- *)

let arrivals arrival ~seed ~until =
  let s = Arrival.Sampler.create arrival ~rng:(Rng.create ~seed) in
  let rec go acc now =
    let t = Arrival.Sampler.next s ~now in
    if t > until then List.rev acc else go (t :: acc) t
  in
  go [] 0.

let test_sampler_determinism () =
  List.iter
    (fun arrival ->
      let a = arrivals arrival ~seed:42 ~until:20. in
      let b = arrivals arrival ~seed:42 ~until:20. in
      Alcotest.(check bool)
        (Printf.sprintf "%s: same seed, same instants" (Arrival.label arrival))
        true (a = b);
      Alcotest.(check bool) "instants strictly increase" true
        (List.for_all2 (fun x y -> x < y) a (List.tl a @ [ infinity ]));
      let c = arrivals arrival ~seed:43 ~until:20. in
      Alcotest.(check bool) "different seed differs" true (a <> c))
    [
      Arrival.poisson ~rate:200.;
      Arrival.mmpp ~rate_low:50. ~rate_high:500. ~dwell_low:0.5 ~dwell_high:0.2;
      Arrival.ramp ~rate_from:50. ~rate_to:400. ~over:5.;
    ]

let test_sampler_mean_rate () =
  (* over a long horizon the realized rate converges on mean_rate *)
  List.iter
    (fun arrival ->
      let horizon = 200. in
      let n = List.length (arrivals arrival ~seed:7 ~until:horizon) in
      let expect = Arrival.mean_rate arrival *. horizon in
      let realized = float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d arrivals vs %.0f expected" (Arrival.label arrival)
           n expect)
        true
        (Float.abs (realized -. expect) < 0.08 *. expect))
    [
      Arrival.poisson ~rate:100.;
      Arrival.mmpp ~rate_low:40. ~rate_high:400. ~dwell_low:1.0 ~dwell_high:0.5;
    ]

let test_with_mean_rate () =
  let a =
    Arrival.mmpp ~rate_low:40. ~rate_high:400. ~dwell_low:1.0 ~dwell_high:0.5
  in
  let b = Arrival.with_mean_rate a ~rate:1000. in
  Alcotest.(check bool) "retargeted mean" true
    (Float.abs (Arrival.mean_rate b -. 1000.) < 1e-6);
  let w =
    Workload.open_loop ~arrival:(Arrival.poisson ~rate:10.) ~key_space:100 ()
  in
  Alcotest.(check (option (float 1e-9))) "workload offered_rate follows"
    (Some 250.)
    (Workload.offered_rate (Workload.with_rate w ~rate:250.))

(* ---------- open-loop runs ---------- *)

let open_params ?(capacity = 100_000) ?(rate = 400.) () =
  {
    (Cluster.params_for_f
       ~workload:
         (Workload.open_loop ~arrival:(Arrival.poisson ~rate) ~key_space:10_000
            ~sources:4 ())
       1)
    with
    Cluster.seed = 11;
    mempool = Mempool.Config.make ~capacity ();
  }

let run_open params ~warmup ~duration =
  Experiment.run marlin ~params (Experiment.Open { warmup; duration })

let test_open_loop_run () =
  let r = run_open (open_params ()) ~warmup:1.0 ~duration:4.0 in
  Alcotest.(check bool) "agreement" true r.Experiment.agreement;
  Alcotest.(check bool) "arrivals generated" true (r.Experiment.generated > 0);
  Alcotest.(check bool) "goodput positive" true (r.Experiment.goodput > 0.);
  (* uncontended: offered ~400/s against a ~15k/s cluster *)
  Alcotest.(check int) "no drops at light load" 0
    (r.Experiment.shed + r.Experiment.rejected);
  Alcotest.(check bool) "drop rate zero" true (r.Experiment.drop_rate < 1e-12);
  Alcotest.(check int) "accounting: sent + shed = generated"
    r.Experiment.generated
    (r.Experiment.sent + r.Experiment.shed);
  Alcotest.(check bool) "goodput tracks offered at light load" true
    (Float.abs (r.Experiment.goodput -. r.Experiment.offered)
    < 0.10 *. r.Experiment.offered);
  Alcotest.(check bool) "latency tail ordered" true
    (r.Experiment.latency.Stats.p50 <= r.Experiment.latency.Stats.p99
    && r.Experiment.latency.Stats.p99 <= r.Experiment.latency.Stats.p999)

let test_open_loop_overload_drops () =
  (* a tiny pool under 30x the sustainable load must shed, and the pool
     bound must hold *)
  let capacity = 50 in
  let r =
    run_open (open_params ~capacity ~rate:20_000. ()) ~warmup:1.0 ~duration:3.0
  in
  Alcotest.(check bool) "drops past saturation" true
    (r.Experiment.drop_rate > 0.);
  Alcotest.(check bool) "occupancy bounded by capacity" true
    (r.Experiment.peak_occupancy <= capacity);
  Alcotest.(check bool) "goodput plateaus below offered" true
    (r.Experiment.goodput < r.Experiment.offered)

let test_open_loop_requires_open () =
  Alcotest.(check bool) "closed-loop params rejected" true
    (raises_invalid (fun () ->
         run_open (Cluster.params_for_f 1) ~warmup:0.5 ~duration:1.0))

let test_open_loop_deterministic () =
  let run () =
    Experiment.open_loop_to_json
      (run_open (open_params ~rate:2_000. ()) ~warmup:1.0 ~duration:3.0)
  in
  Alcotest.(check string) "same seed, byte-identical record" (run ()) (run ())

(* ---------- knee ---------- *)

let test_knee () =
  let mk offered goodput p99 =
    {
      Experiment.workload = "w";
      offered;
      goodput;
      generated = 0;
      sent = 0;
      shed = 0;
      rejected = 0;
      drop_rate = 0.;
      peak_occupancy = 0;
      latency = { (Stats.summarize []) with Stats.p99 };
      agreement = true;
    }
  in
  (* the classic shape: goodput rises, then saturates as p99 blows up *)
  let curve =
    [ mk 100. 99. 0.2; mk 200. 198. 0.4; mk 400. 310. 2.0; mk 800. 300. 4.0 ]
  in
  let k, cap = Experiment.knee curve in
  Alcotest.(check (float 1e-9)) "knee at the last sustainable point" 198.
    k.Experiment.goodput;
  Alcotest.(check bool) "sustainable" true (cap = `Within_cap);
  let k', cap' = Experiment.knee ~latency_cap:0.1 curve in
  Alcotest.(check bool) "all saturated -> fallback flagged" true
    (cap' = `Fallback);
  Alcotest.(check (float 1e-9)) "fallback is the overall max" 310.
    k'.Experiment.goodput;
  Alcotest.(check bool) "empty raises" true
    (raises_invalid (fun () -> Experiment.knee []))

(* ---------- hostile configs ---------- *)

module C = Marlin_core.Consensus_intf
module Cl = Cluster.Make (Marlin_runtime.Registry.Chained_marlin)

let rejected_naming field f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
      let n = String.length field in
      let rec mentions i =
        i + n <= String.length msg && (String.sub msg i n = field || mentions (i + 1))
      in
      mentions 0

let test_cluster_rejects_params () =
  let p = Cluster.default_params in
  List.iter
    (fun (field, params) ->
      Alcotest.(check bool)
        (field ^ " rejected by name") true
        (rejected_naming field (fun () -> Cl.create params)))
    [
      ("batch_max", { p with Cluster.batch_max = 0 });
      ("op_size", { p with Cluster.op_size = -1000 });
      ("reply_size", { p with Cluster.reply_size = -1 });
      ("exec_cost", { p with Cluster.exec_cost = Float.nan });
      ("exec_cost", { p with Cluster.exec_cost = -1e-6 });
      ("rotation", { p with Cluster.rotation = Some 0. });
      ("latency", { p with Cluster.net = { p.net with latency = Float.nan } });
      ("jitter", { p with Cluster.net = { p.net with jitter = -0.5 } });
      ( "bandwidth_bps",
        { p with Cluster.net = { p.net with bandwidth_bps = 0. } } );
      ( "write_bandwidth",
        { p with Cluster.disk = { p.disk with write_bandwidth = 0. } } );
      ( "checkpoint_interval",
        { p with Cluster.disk = { p.disk with checkpoint_interval = -1 } } );
    ]

(* Every field is drawn from a small set holding both valid and invalid
   values (zero, negatives, NaN, infinities), and each constructor must
   raise Invalid_argument exactly when some field is invalid. *)
let edge_float = QCheck.Gen.oneofl [ Float.nan; infinity; neg_infinity; -1.; 0.; 1e-3; 1.; 500. ]
let valid_pos x = Float.is_finite x && x > 0.
let edge_int = QCheck.Gen.oneof [ QCheck.Gen.int_range (-2) 9; QCheck.Gen.oneofl [ min_int; max_int ] ]

let accepts_iff valid f =
  match f () with
  | _ -> valid
  | exception Invalid_argument _ -> not valid

let config_gen =
  QCheck.Gen.(
    map
      (fun ((id, n, f, keys), (base, max)) -> (id, n, f, keys, base, max))
      (pair
         (quad edge_int edge_int (int_range (-2) 4) (int_range 1 9))
         (pair edge_float edge_float)))

let print_config (id, n, f, keys, base, max) =
  Printf.sprintf "id=%d n=%d f=%d keys=%d base_timeout=%g max_timeout=%g" id n
    f keys base max

let config_make_property =
  QCheck.Test.make ~count:500
    ~name:"Config.make rejects exactly the invalid configs"
    (QCheck.make ~print:print_config config_gen)
    (fun (id, n, f, keys, base_timeout, max_timeout) ->
      let keychain = Marlin_crypto.Keychain.create ~n:keys () in
      let valid =
        f >= 0 && n >= 1 && n >= (3 * f) + 1 && id >= 0 && id < n && keys = n
        && valid_pos base_timeout && base_timeout <= max_timeout
      in
      accepts_iff valid (fun () ->
          C.Config.make ~id ~n ~f ~keychain ~base_timeout ~max_timeout ()))

let mempool_workload_property =
  QCheck.Test.make ~count:500
    ~name:"Mempool.Config.make and Workload constructors reject exactly the invalid ones"
    QCheck.(
      make
        ~print:(fun ((a, b), (c, d), (r, s)) ->
          Printf.sprintf "ints %d %d %d %d floats %g %g" a b c d r s)
        Gen.(
          triple (pair edge_int edge_int) (pair edge_int edge_int)
            (pair edge_float edge_float)))
    (fun ((capacity, per_client_cap), (clients, key_space), (rate, other)) ->
      let sources = clients in
      accepts_iff (capacity >= 1 && per_client_cap >= 1) (fun () ->
          Mempool.Config.make ~capacity ~per_client_cap ())
      && accepts_iff (clients >= 1) (fun () -> Workload.closed_loop ~clients)
      && accepts_iff (valid_pos rate) (fun () -> Arrival.poisson ~rate)
      && accepts_iff
           (valid_pos rate && valid_pos other)
           (fun () ->
             Arrival.mmpp ~rate_low:rate ~rate_high:other ~dwell_low:other
               ~dwell_high:rate)
      && accepts_iff
           (valid_pos rate && valid_pos other)
           (fun () -> Arrival.ramp ~rate_from:rate ~rate_to:other ~over:other)
      && accepts_iff
           (key_space >= 1 && sources >= 1)
           (fun () ->
             Workload.open_loop ~sources ~arrival:(Arrival.poisson ~rate:1.)
               ~key_space ())
      && accepts_iff (valid_pos rate) (fun () ->
             Workload.with_rate
               (Workload.open_loop ~arrival:(Arrival.poisson ~rate:1.)
                  ~key_space:1 ())
               ~rate))

(* Each net and disk field keeps its default five times in six, so that
   cases with every field valid stay common among the nine extra fields. *)
let mostly default gen =
  QCheck.Gen.frequency [ (5, QCheck.Gen.return default); (1, gen) ]

let net_disk_gen =
  let n = Netsim.default_config and d = Sim_disk.default_config in
  QCheck.Gen.(
    map
      (fun ( (latency, jitter, bandwidth_bps, gst),
             (pre_gst_extra, write_bandwidth, write_overhead, checkpoint_cost),
             checkpoint_interval ) ->
        ( { Netsim.latency; jitter; bandwidth_bps; gst; pre_gst_extra },
          {
            Sim_disk.write_bandwidth;
            write_overhead;
            checkpoint_interval;
            checkpoint_cost;
          } ))
      (triple
         (quad (mostly n.latency edge_float) (mostly n.jitter edge_float)
            (mostly n.bandwidth_bps edge_float) (mostly n.gst edge_float))
         (quad (mostly n.pre_gst_extra edge_float)
            (mostly d.write_bandwidth edge_float)
            (mostly d.write_overhead edge_float)
            (mostly d.checkpoint_cost edge_float))
         (mostly d.checkpoint_interval (int_range (-2) 3))))

let cluster_gen =
  QCheck.Gen.(
    triple
      (quad (int_range (-1) 7) (int_range (-1) 2) (int_range (-1) 2)
         (int_range (-1) 1))
      (quad edge_float edge_float edge_float
         (oneof [ return None; map Option.some edge_float ]))
      net_disk_gen)

let print_cluster
    ( (n, f, batch_max, op_size),
      (exec_cost, base, max, rotation),
      ((net : Netsim.config), (disk : Sim_disk.config)) ) =
  Printf.sprintf
    "n=%d f=%d batch_max=%d op_size=%d exec_cost=%g base_timeout=%g \
     max_timeout=%g rotation=%s latency=%g jitter=%g bandwidth_bps=%g gst=%g \
     pre_gst_extra=%g write_bandwidth=%g write_overhead=%g \
     checkpoint_interval=%d checkpoint_cost=%g"
    n f batch_max op_size exec_cost base max
    (match rotation with None -> "none" | Some r -> string_of_float r)
    net.latency net.jitter net.bandwidth_bps net.gst net.pre_gst_extra
    disk.write_bandwidth disk.write_overhead disk.checkpoint_interval
    disk.checkpoint_cost

let cluster_create_property =
  QCheck.Test.make ~count:300
    ~name:"Cluster.create rejects exactly the invalid params"
    (QCheck.make ~print:print_cluster cluster_gen)
    (fun ( (n, f, batch_max, op_size),
           (exec_cost, base_timeout, max_timeout, rotation),
           (net, disk) ) ->
      let finite_nonneg x = Float.is_finite x && x >= 0. in
      let valid =
        f >= 0 && n >= 1 && n >= (3 * f) + 1 && batch_max >= 1 && op_size >= 0
        && finite_nonneg exec_cost
        && valid_pos base_timeout && base_timeout <= max_timeout
        && Option.fold ~none:true ~some:valid_pos rotation
        && List.for_all finite_nonneg
             [
               net.latency; net.jitter; net.gst; net.pre_gst_extra;
               disk.write_overhead; disk.checkpoint_cost;
             ]
        && net.bandwidth_bps > 0. && disk.write_bandwidth > 0.
        && disk.checkpoint_interval >= 0
      in
      accepts_iff valid (fun () ->
          Cl.create
            {
              Cluster.default_params with
              n; f; batch_max; op_size; exec_cost; base_timeout; max_timeout;
              rotation; net; disk;
              workload = Workload.closed_loop ~clients:2;
            }))

let suite =
  [
    ("constructors validate", `Quick, test_constructor_validation);
    ("samplers are deterministic", `Quick, test_sampler_determinism);
    ("samplers hit their mean rate", `Quick, test_sampler_mean_rate);
    ("with_mean_rate retargets", `Quick, test_with_mean_rate);
    ("open-loop run measures", `Quick, test_open_loop_run);
    ("overload sheds, bound holds", `Quick, test_open_loop_overload_drops);
    ("closed-loop params rejected", `Quick, test_open_loop_requires_open);
    ("open-loop runs are deterministic", `Quick, test_open_loop_deterministic);
    ("knee finder", `Quick, test_knee);
    ("Cluster.create rejects invalid params, naming the field", `Quick,
     test_cluster_rejects_params);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ config_make_property; mempool_workload_property; cluster_create_property ]

let () = Alcotest.run "workload" [ ("workload", suite) ]
