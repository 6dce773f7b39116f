(* perf.exe: the repository benchmark. It times the simulator end to end
   on four workloads and, in a separate traced run, layer by layer.

     perf.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1]
              [--json FILE] [--spans FILE]
     perf.exe smoke

   One operation is one workload's full set of simulation runs, all on the
   given seed. After one untimed warm-up operation, operations repeat
   until [--seconds] have passed; host-time metrics are medians over them.
   Every repeat must reproduce the warm-up's simulated results bit for bit,
   traced or not. See README.md for the workloads and metrics. *)

module W = Workloads
module Stats = Marlin_analysis.Stats
module Json = Marlin_obs.Json_lite

(* ---------- operations ---------- *)

type op = {
  runs : W.run list;
  head : W.headline option;
  failures : string list;
  wall_ns : int;
  ref_ns : int;  (** the host reference kernel, mean of before and after *)
  early_ns : int;
  late_ns : int;
  blocks : int;
  minor_words : float;
  promoted_words : float;
  major_gcs : int;
  fingerprint : string;
}

let replay w ~seed detail =
  Printf.sprintf "replay: bash bench/perf/run.sh --workload %s --seed %d --seconds 1 --trace 0 # %s"
    w.W.name seed detail

let run_op ?(observe = true) ?(live = false) ~traced ~scale ~seed w =
  let specs =
    List.map
      (fun s -> { s with W.observed = s.W.observed && observe })
      (W.specs ~scale ~seed w)
  in
  let ref_before = Calib.host_ref_ns () in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  if traced then Spans.set_recording true;
  let t0 = Spans.now_ns () in
  let results =
    List.map
      (fun spec ->
        match W.simulate ~live ~traced spec with
        | r -> Ok r
        | exception e -> Error (spec, Printexc.to_string e))
      specs
  in
  let wall_ns = Spans.now_ns () - t0 in
  Spans.set_recording false;
  let g1 = Gc.quick_stat () in
  let ref_ns = (ref_before + Calib.host_ref_ns ()) / 2 in
  let runs = List.filter_map Result.to_option results in
  let run_failures =
    List.concat_map
      (function
        | Ok r ->
            List.map
              (fun msg -> replay w ~seed (W.replay_label r.W.spec ^ ": " ^ msg))
              r.W.sim.W.failures
        | Error (spec, exn) ->
            [ replay w ~seed (W.replay_label spec ^ ": exception " ^ exn) ])
      results
  in
  let head, op_failures =
    if List.length runs < List.length specs then (None, [])
    else
      let h, failures = W.headline w runs in
      (* a p99 needs ten samples beyond it; the shortened smoke run is
         sized to exercise the paths, not to estimate a tail *)
      let failures =
        if scale >= 1. && h.W.samples < 1000 then
          Printf.sprintf "p99 over %d samples, fewer than 1000" h.W.samples
          :: failures
        else failures
      in
      (Some h, List.map (replay w ~seed) failures)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  {
    runs;
    head;
    failures = run_failures @ op_failures;
    wall_ns;
    ref_ns;
    early_ns = sum (fun r -> r.W.early_ns);
    late_ns = sum (fun r -> r.W.late_ns);
    blocks = sum (fun r -> r.W.sim.W.blocks);
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    fingerprint =
      Digest.to_hex
        (Digest.string
           (Marshal.to_string (List.map (fun r -> r.W.sim) runs) [ Marshal.No_sharing ]));
  }

(* ---------- what one benchmark run collected ---------- *)

type data = {
  w : W.t;
  reference : op;  (** the warm-up; every other operation must match it *)
  untraced : op list;
  traced : op list;
  obs_off : op option;  (** faults workload, traced run: observation off *)
  setup : (int * int) list;
      (** per round: ns of one operation's cluster set-ups, and the
          reference kernel's ns next to it *)
  calib : Calib.t option;
}

let median_of f l = Stats.median (List.map f l)
let median_ns f l = median_of (fun x -> float_of_int (f x) *. 1e-9) l
let per_block v (o : op) = v /. float_of_int (max 1 o.blocks)

let head d f =
  match d.reference.head with Some h -> f h | None -> 0.

let max_sim d f =
  float_of_int (List.fold_left (fun acc r -> max acc (f r.W.sim)) 0 d.reference.runs)

let sum_sim d f =
  float_of_int (List.fold_left (fun acc r -> acc + f r.W.sim) 0 d.reference.runs)

let traced_ops d = float_of_int (max 1 (List.length d.traced))

(* Span totals per traced operation. *)
let span_calls d id = float_of_int (Spans.calls id) /. traced_ops d
let span_s d id = Spans.self_s id /. traced_ops d

let fold_spans pred f =
  let acc = ref 0. in
  for id = 0 to Spans.count - 1 do
    if pred id then acc := !acc +. f id
  done;
  !acc

let core_s d = fold_spans Spans.is_core (span_s d)
let core_calls d = fold_spans Spans.is_core (span_calls d)
let traced_wall_s d = fold_spans (fun _ -> true) (span_s d)
let share part whole = if whole > 0. then part /. whole else 0.

let residual_s d = span_s d Spans.cluster_run +. span_s d Spans.cluster_create
let wall_s d = median_ns (fun o -> o.wall_ns) d.untraced

(* Host time in units of the reference kernel timed next to it. *)
let ratio ns ref_ns = float_of_int ns /. float_of_int (max 1 ref_ns)
let cost o = ratio o.wall_ns o.ref_ns

(* Set-up seconds on a host where the reference kernel takes 65 ms, about
   what it takes on the baseline host: set-up is timed in rounds, each
   divided by the kernel timed next to it, so that the host's drift from
   one minute to the next cancels as it does in [run_cost_ref]. *)
let setup_s d =
  median_of (fun (ns, ref_ns) -> ratio ns ref_ns) d.setup *. 65e-3

let peak_heap_mb d =
  let words =
    List.fold_left
      (fun acc o -> List.fold_left (fun acc r -> max acc r.W.heap_words) acc o.runs)
      0 d.untraced
  in
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

let calib d f = match d.calib with Some c -> f c | None -> 0.
let crypto_ops d = sum_sim d (fun s -> s.W.crypto_ops)

let est_floor_s d =
  crypto_ops d *. calib d (fun c -> c.Calib.partial_verify_ns) *. 1e-9

(* ---------- metrics ---------- *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  value : data -> float;
}

let m name unit better value = { name; unit; better; value }

let end_to_end =
  [
    m "run_cost_ref" "ref" Lower (fun d -> median_of cost d.untraced);
    m "setup_s" "s" Lower setup_s;
    m "live_heap_mb" "MB" Lower (fun d ->
        float_of_int
          (List.fold_left (fun acc r -> max acc r.W.live_words) 0 d.reference.runs)
        *. float_of_int (Sys.word_size / 8)
        /. 1e6);
    m "alloc_words_per_block" "word/block" Lower (fun d ->
        median_of (fun o -> per_block o.minor_words o) d.untraced);
    m "sim_goodput_ops" "op/sim-s" Higher (fun d -> head d (fun h -> h.W.goodput));
    m "sim_commit_p50_ms" "ms" Lower (fun d -> head d (fun h -> h.W.p50_ms));
    m "sim_commit_p99_ms" "ms" Lower (fun d -> head d (fun h -> h.W.p99_ms));
    m "msgs_per_block" "msg/block" Lower (fun d ->
        head d (fun h -> h.W.msgs_per_block));
    m "auths_per_block" "auth/block" Lower (fun d ->
        head d (fun h -> h.W.auths_per_block));
  ]

let per_layer =
  let msg_metrics =
    List.concat_map
      (fun kind ->
        let id = Spans.id_of_name ("core.msg." ^ kind) in
        [
          m ("core.msg." ^ kind ^ ".calls") "count" Lower (fun d -> span_calls d id);
          m ("core.msg." ^ kind ^ ".self_s") "s" Lower (fun d -> span_s d id);
        ])
      Spans.msg_kinds
  in
  [
    (* marlin_core, timed through the protocol functor *)
    m "core.calls" "count" Lower core_calls;
    m "core.self_s" "s" Lower core_s;
    m "core.share" "ratio" Lower (fun d -> share (core_s d) (traced_wall_s d));
    m "core.us_per_call" "us" Lower (fun d ->
        share (core_s d) (core_calls d) *. 1e6);
    m "core.actions_per_call" "count" Lower (fun d ->
        share (float_of_int (Spans.actions ()) /. traced_ops d) (core_calls d));
    m "core.timer.calls" "count" Lower (fun d -> span_calls d Spans.core_timer);
    m "core.timer.self_s" "s" Lower (fun d -> span_s d Spans.core_timer);
    m "core.payload.calls" "count" Lower (fun d -> span_calls d Spans.core_payload);
    m "core.payload.self_s" "s" Lower (fun d -> span_s d Spans.core_payload);
  ]
  @ msg_metrics
  @ [
      (* marlin_crypto: op counts from the replicas' CPU meters, ns/op from
         calibration loops at the workload's quorum *)
      m "crypto.ops" "count" Lower crypto_ops;
      m "crypto.ops_per_block" "op/block" Lower (fun d ->
          per_block (crypto_ops d) d.reference);
      m "crypto.partial_verify_ns" "ns" Lower (fun d ->
          calib d (fun c -> c.Calib.partial_verify_ns));
      m "crypto.combine_ns" "ns" Lower (fun d -> calib d (fun c -> c.Calib.combine_ns));
      m "crypto.qc_verify_ns" "ns" Lower (fun d ->
          calib d (fun c -> c.Calib.qc_verify_ns));
      m "crypto.est_floor_s" "s" Lower est_floor_s;
      (* marlin_types *)
      m "types.wire_bytes_per_block" "B/block" Lower (fun d ->
          per_block (sum_sim d (fun s -> s.W.cons_bytes)) d.reference);
      m "types.block_digest_us" "us" Lower (fun d ->
          calib d (fun c -> c.Calib.block_digest_us));
      m "types.encode_proposal_us" "us" Lower (fun d ->
          calib d (fun c -> c.Calib.encode_proposal_us));
      (* marlin_runtime: the mempool through the get_batch closure, the
         cluster glue as the self time of Cluster.create/run *)
      m "mempool.get_batch.calls" "count" Lower (fun d ->
          span_calls d Spans.mempool_get_batch);
      m "mempool.get_batch.self_s" "s" Lower (fun d ->
          span_s d Spans.mempool_get_batch);
      m "mempool.ops_per_batch" "op/batch" Higher (fun d ->
          share
            (float_of_int (Spans.batch_ops ()) /. traced_ops d)
            (span_calls d Spans.mempool_get_batch));
      m "mempool.admit_ratio" "ratio" Higher (fun d ->
          let admitted = sum_sim d (fun s -> s.W.admitted) in
          share admitted (admitted +. sum_sim d (fun s -> s.W.refused)));
      m "mempool.peak_occupancy" "count" Lower (fun d ->
          max_sim d (fun s -> s.W.peak_occupancy));
      m "runtime.residual_s" "s" Lower residual_s;
      m "runtime.residual_share" "ratio" Lower (fun d ->
          share (residual_s d) (traced_wall_s d));
      m "runtime.late_over_early" "ratio" Lower (fun d ->
          median_of (fun o -> share (float_of_int o.late_ns) (float_of_int o.early_ns))
            d.untraced);
      (* marlin_sim *)
      m "sim.peak_pending" "count" Lower (fun d -> max_sim d (fun s -> s.W.peak_pending));
      m "sim.event_queue_ns" "ns" Lower (fun d ->
          calib d (fun c -> c.Calib.event_queue_ns));
      m "sim.latency_samples" "count" Higher (fun d ->
          head d (fun h -> float_of_int h.W.samples));
      m "net.msgs" "count" Lower (fun d -> sum_sim d (fun s -> s.W.net_msgs));
      m "net.consensus_msgs" "count" Lower (fun d -> sum_sim d (fun s -> s.W.cons_msgs));
      m "net.client_msg_share" "ratio" Lower (fun d ->
          share (sum_sim d (fun s -> s.W.client_msgs)) (sum_sim d (fun s -> s.W.net_msgs)));
      m "net.bytes" "B" Lower (fun d -> sum_sim d (fun s -> s.W.net_bytes));
      (* marlin_workload *)
      m "workload.generated" "count" Higher (fun d -> sum_sim d (fun s -> s.W.generated));
      m "workload.shed" "count" Lower (fun d -> sum_sim d (fun s -> s.W.shed));
      m "workload.rejected" "count" Lower (fun d -> sum_sim d (fun s -> s.W.rejected));
      m "workload.inflight_end" "count" Lower (fun d ->
          sum_sim d (fun s -> s.W.inflight_end));
      m "workload.knee_ops" "op/s" Higher (fun d -> head d (fun h -> h.W.knee_ops));
      m "workload.drop_rate" "ratio" Lower (fun d -> head d (fun h -> h.W.drop_rate));
      (* marlin_obs *)
      m "obs.trace_events" "count" Lower (fun d -> sum_sim d (fun s -> s.W.trace_events));
      m "obs.events_per_commit" "event/block" Lower (fun d ->
          per_block (sum_sim d (fun s -> s.W.trace_events)) d.reference);
      m "obs.sink_overhead_s" "s" Lower (fun d ->
          match d.obs_off with
          | Some off -> wall_s d *. (1. -. share (cost off) (median_of cost d.untraced))
          | None -> 0.);
      m "obs.reconstruct_s" "s" Lower (fun d -> span_s d Spans.obs_reconstruct);
      m "obs.critical_path_s" "s" Lower (fun d -> span_s d Spans.obs_critical_path);
      m "obs.bin_segments_s" "s" Lower (fun d -> span_s d Spans.obs_bin_segments);
      (* marlin_faults *)
      m "faults.runs" "count" Higher (fun d ->
          float_of_int
            (List.length
               (List.filter (fun r -> Option.is_some r.W.spec.W.scenario) d.reference.runs)));
      m "faults.recovered" "count" Higher (fun d ->
          head d (fun h -> float_of_int h.W.recovered));
      m "faults.recovery_p50_ms" "ms" Lower (fun d -> head d (fun h -> h.W.recovery_p50_ms));
      m "faults.vc_msgs_p50" "msg" Lower (fun d -> head d (fun h -> h.W.vc_msgs_p50));
      m "faults.vc_bytes_p50" "B" Lower (fun d -> head d (fun h -> h.W.vc_bytes_p50));
      m "faults.vc_auths_p50" "auth" Lower (fun d -> head d (fun h -> h.W.vc_auths_p50));
      (* the OCaml GC, over untraced operations *)
      m "gc.peak_heap_mb" "MB" Lower peak_heap_mb;
      m "gc.promoted_words_per_block" "word/block" Lower (fun d ->
          median_of (fun o -> per_block o.promoted_words o) d.untraced);
      m "gc.major_collections" "count" Lower (fun d ->
          median_of (fun o -> float_of_int o.major_gcs) d.untraced);
      (* the benchmark itself: raw host times, the reference they are
         divided by, and what tracing costs *)
      m "bench.run_wall_s" "s" Lower wall_s;
      m "bench.setup_raw_s" "s" Lower (fun d -> median_ns fst d.setup);
      m "bench.ref_kernel_ms" "ms" Lower (fun d ->
          median_ns (fun o -> o.ref_ns) d.untraced *. 1e3);
      (* each traced operation runs right after an untraced one, so the
         ratio within a pair leaves out the host's drift between pairs *)
      m "bench.trace_overhead" "ratio" Lower (fun d ->
          match d.traced with
          | [] -> 0.
          | _ ->
              Stats.median (List.map2 (fun u t -> share (cost t) (cost u)) d.untraced d.traced)
              -. 1.);
    ]

(* ---------- collecting ---------- *)

(* One operation's [Cluster.create] calls, repeated in 11 rounds of about
   30 ms so that no single call's GC slice decides a sample; the
   reference kernel is timed before and after each round. *)
let measure_setup ~seed w =
  let rounds = 11 and round_ns = 30_000_000 in
  let specs = W.specs ~scale:1. ~seed w in
  let once () = List.fold_left (fun acc spec -> acc + W.setup_ns spec) 0 specs in
  let iters = max 1 (round_ns / max 1 (once ())) in
  let round () =
    Gc.full_major ();
    let ns = ref 0 in
    for _ = 1 to iters do
      ns := !ns + once ()
    done;
    !ns / iters
  in
  let rec go k before acc =
    if k = 0 then List.rev acc
    else
      let ns = round () in
      let after = Calib.host_ref_ns () in
      go (k - 1) after ((ns, (before + after) / 2) :: acc)
  in
  go rounds (Calib.host_ref_ns ()) []

(* Calibration at the sizes the workload runs at: its first run's quorum
   and batch size, and the event-queue depth it peaked at. *)
let calibrate (o : op) =
  match o.runs with
  | [] -> None
  | r :: _ ->
      let p = r.W.spec.W.params in
      let n = p.Marlin_runtime.Cluster.n and f = p.Marlin_runtime.Cluster.f in
      Some
        (Calib.measure ~n ~quorum:(n - f)
           ~batch:p.Marlin_runtime.Cluster.batch_max
           ~depth:r.W.sim.W.peak_pending)

let collect w ~seed ~seconds ~trace =
  Spans.reset ();
  let run_op ?observe ?live ~traced () =
    run_op ?observe ?live ~traced ~scale:1. ~seed w
  in
  (* set-up is timed before any simulation has run: timed after the
     warm-up, with its large heap freed but kept, the median over ten
     processes spread 28% on happy-n256; timed first, 7% *)
  let setup = measure_setup ~seed w in
  let reference = run_op ~live:true ~traced:false () in
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop untraced traced =
    let untraced = run_op ~traced:false () :: untraced in
    let traced = if trace then run_op ~traced:true () :: traced else traced in
    if Spans.now_ns () < deadline then loop untraced traced
    else (List.rev untraced, List.rev traced)
  in
  let untraced, traced = loop [] [] in
  (* the faults workload observes every run; the traced pass re-runs it
     with observation off to price the obs sink *)
  let obs_off =
    if trace && List.exists (fun r -> r.W.spec.W.observed) reference.runs then
      Some (run_op ~observe:false ~traced:false ())
    else None
  in
  { w; reference; untraced; traced; obs_off; setup;
    calib = (if trace then calibrate reference else None) }

(* ---------- checks and output ---------- *)

(* Every repeat must reproduce the reference's simulated results, and
   every traced run's span self times must sum to its root span. Returns
   the problems, the operations attempted and the operations that failed. *)
let problems d =
  let repeats = d.untraced @ d.traced in
  let ops = (d.reference :: repeats) @ Option.to_list d.obs_off in
  let diverged o =
    List.memq o repeats && not (String.equal o.fingerprint d.reference.fingerprint)
  in
  let n_diverged = List.length (List.filter diverged repeats) in
  let residue = Spans.max_residue_ns () in
  ( List.sort_uniq String.compare (List.concat_map (fun o -> o.failures) ops)
    @ (if n_diverged = 0 then []
       else
         [
           Printf.sprintf "%d of %d repeats diverged from the reference run"
             n_diverged (List.length repeats);
         ])
    @ (if residue <= 1000 then []
       else [ Printf.sprintf "span self times miss their root by %d ns" residue ]),
    List.length ops,
    List.length (List.filter (fun o -> o.failures <> [] || diverged o) ops) )

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let metrics_json values =
  String.concat ","
    (List.map
       (fun (mt, v) ->
         Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} mt.name (json_number v)
           mt.unit)
       values)

(* Prints [name value unit] lines, then the result object as the last line.
   [json] also receives one line per workload with the metrics in sorted
   order, the fingerprint, and every operation's wall and reference time. *)
let report ?json ~seed ~trace d =
  let metrics = if trace then per_layer else end_to_end in
  let values = List.map (fun mt -> (mt, mt.value d)) metrics in
  let problems, attempted, failed = problems d in
  let correct = problems = [] in
  List.iter (fun p -> Printf.printf "# FAIL %s\n" p) problems;
  Printf.printf "# workload %s seed %d: %d untraced + %d traced operations, fingerprint %s\n"
    d.w.W.name seed (List.length d.untraced) (List.length d.traced)
    d.reference.fingerprint;
  (match d.reference.head with
  | Some h -> Printf.printf "# sim_commit_p99_ms over %d samples\n" h.W.samples
  | None -> ());
  List.iter
    (fun (mt, v) -> Printf.printf "%s %.10g %s\n" mt.name v mt.unit)
    values;
  let seconds f =
    String.concat ","
      (List.map (fun o -> json_number (float_of_int (f o) *. 1e-9)) d.untraced)
  in
  Option.iter
    (fun oc ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> String.compare a.name b.name) values
      in
      Printf.fprintf oc
        {|{"schema":"marlin-perf/1","workload":"%s","seed":%d,"trace":%b,"fingerprint":"%s","correct":%b,"attempted":%d,"failed":%d,"wall_s":[%s],"ref_s":[%s],"metrics":{%s}}|}
        d.w.W.name seed trace d.reference.fingerprint correct attempted failed
        (seconds (fun o -> o.wall_ns)) (seconds (fun o -> o.ref_ns))
        (metrics_json sorted);
      output_char oc '\n')
    json;
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    correct attempted failed (metrics_json values);
  print_newline ()

(* ---------- smoke: every workload at a twentieth of its length ---------- *)

let benchmark_names () =
  let path = "BENCHMARK.json" in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = Json.parse_exn text in
  let names key =
    match Json.member key json with
    | Some (Json.Arr items) ->
        List.map
          (fun item ->
            let field k = Option.value ~default:"" (Json.string_at [ k ] item) in
            (field "name", field "unit", field "better"))
          items
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  (names "end_to_end", names "per_layer", names "workloads")

let smoke () =
  let e2e, layer, workloads = benchmark_names () in
  Spans.check_kinds true;
  let declared l ms =
    let better = function Lower -> "lower" | Higher -> "higher" in
    List.sort compare l
    = List.sort compare (List.map (fun mt -> (mt.name, mt.unit, better mt.better)) ms)
  in
  let ok = ref true in
  let check what cond =
    if not cond then begin
      ok := false;
      Printf.printf "smoke: FAIL %s\n%!" what
    end
  in
  check "BENCHMARK.json end_to_end metrics match perf.exe"
    (declared e2e end_to_end);
  check "BENCHMARK.json per_layer metrics match perf.exe"
    (declared layer per_layer);
  check "BENCHMARK.json workloads match perf.exe"
    (List.sort compare (List.map (fun (n, _, _) -> n) workloads)
    = List.sort compare (List.map (fun w -> w.W.name) W.all));
  List.iter
    (fun w ->
      Spans.reset ();
      let t0 = Spans.now_ns () in
      let op ~traced = run_op ~traced ~scale:0.05 ~seed:1 w in
      let reference = op ~traced:false in
      let traced = op ~traced:true in
      let d =
        { w; reference; untraced = []; traced = [ traced ]; obs_off = None;
          setup = []; calib = None }
      in
      let problems, _, _ = problems d in
      List.iter (fun p -> check (w.W.name ^ ": " ^ p) false) problems;
      check (w.W.name ^ ": spans recorded") (Spans.runs () = List.length traced.runs);
      Printf.printf "smoke: %-12s %d runs, %.2f s, fingerprint %s\n%!" w.W.name
        (List.length reference.runs)
        (float_of_int (Spans.now_ns () - t0) *. 1e-9)
        reference.fingerprint)
    W.all;
  if !ok then print_endline "smoke: ok";
  !ok

(* ---------- command line ---------- *)

let usage () =
  Printf.eprintf
    "usage: perf.exe [run] --workload NAME|all --seed N [--seconds S] [--trace 0|1] \
     [--json FILE] [--spans FILE]\n\
    \       perf.exe smoke\n\
     workloads: %s\n"
    (String.concat ", " (List.map (fun w -> w.W.name) W.all));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "smoke" ] -> exit (if smoke () then 0 else 1)
  | _ ->
      let rec parse acc = function
        | [] -> acc
        | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((flag, value) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] (match args with "run" :: rest -> rest | _ -> args) in
      let known = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json"; "--spans" ] in
      if List.exists (fun (k, _) -> not (List.mem k known)) opts then usage ();
      let opt k = List.assoc_opt k opts in
      let num k conv default =
        match opt k with
        | None -> default
        | Some v -> ( match conv v with Some x -> x | None -> usage ())
      in
      let seed = num "--seed" int_of_string_opt 1 in
      let seconds = num "--seconds" float_of_string_opt 10. in
      let trace =
        match opt "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some _ -> usage ()
      in
      let workloads =
        match opt "--workload" with
        | Some "all" -> W.all
        | Some name -> ( match W.find name with Some w -> [ w ] | None -> usage ())
        | None -> usage ()
      in
      Option.iter (fun _ -> Spans.keep_spans ~capacity:(1 lsl 20)) (opt "--spans");
      let json = Option.map open_out (opt "--json") in
      List.iter
        (fun w -> report ?json ~seed ~trace (collect w ~seed ~seconds ~trace))
        workloads;
      Option.iter close_out json;
      Option.iter Spans.write_jsonl (opt "--spans")
