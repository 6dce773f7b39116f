(* Tests for the observability layer (marlin_obs): trace ordering, counter
   reconciliation against the closed-form happy-path message complexity,
   exporter output, the zero-cost disabled path, and the Config.make /
   timer-cause API surface it rides along with. *)

open Marlin_types
module C = Marlin_core.Consensus_intf
module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Obs = Marlin_obs
module Complexity = Marlin_analysis.Complexity
module Cost_model = Marlin_crypto.Cost_model

let basic_marlin : C.protocol = (module Marlin_runtime.Registry.Marlin)
let basic_hotstuff : C.protocol = (module Marlin_runtime.Registry.Hotstuff)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* One closed-loop client against f = 1: every op becomes its own block,
   the leader is stable, and the counters are directly comparable to the
   per-block happy-path model (2p + 1)(n - 1). *)
let observed_run ?(trace = false) proto =
  let obs = Obs.Run.create ~trace ~n:4 () in
  let params =
    { (Cluster.params_for_f ~workload:(Marlin_workload.Workload.closed_loop ~clients:1) 1) with Cluster.seed = 9; obs = Some obs }
  in
  let r =
    Experiment.run proto ~params
      (Experiment.Closed { warmup = 0.5; duration = 6.0; crashed = [] })
  in
  (obs, r)

(* the accounting size the cluster uses for signatures on the wire *)
let sig_bytes = Cost_model.combined_size Cost_model.ecdsa_group ~n:4 ~shares:3

(* ---------- trace ---------- *)

let test_trace_ordering () =
  let obs, r = observed_run ~trace:true basic_marlin in
  Alcotest.(check bool) "agreement" true r.Experiment.agreement;
  let events = Obs.Run.trace_events obs in
  Alcotest.(check bool) "trace nonempty" true (List.length events > 0);
  let rec monotone = function
    | (a : Obs.Trace.event) :: (b :: _ as rest) ->
        a.Obs.Trace.time <= b.Obs.Trace.time && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "times monotone non-decreasing" true (monotone events);
  let first p =
    List.find_map
      (fun (e : Obs.Trace.event) -> if p e.Obs.Trace.kind then Some e else None)
      events
  in
  let propose =
    first (function Obs.Trace.Propose _ -> true | _ -> false)
  in
  let commit = first (function Obs.Trace.Commit _ -> true | _ -> false) in
  (match (propose, commit) with
  | Some p, Some c ->
      Alcotest.(check bool) "a proposal precedes the first commit" true
        (p.Obs.Trace.time < c.Obs.Trace.time);
      Alcotest.(check int) "leader proposed" 0 p.Obs.Trace.replica
  | _ -> Alcotest.fail "expected propose and commit events");
  (* network events carry causally consistent departure times *)
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.Obs.Trace.kind with
      | Obs.Trace.Net_queued { depart; _ } ->
          Alcotest.(check bool) "departure not before queueing" true
            (depart >= e.Obs.Trace.time)
      | _ -> ())
    events

(* Every protocol proposes, votes, forms certificates and commits through
   Replica, so each one emits all four events and its spans reach their
   proposal. *)
let test_every_protocol_emits () =
  List.iter
    (fun (name, proto) ->
      let obs, _ = observed_run ~trace:true proto in
      let events = Obs.Run.trace_events obs in
      let count p =
        List.length
          (List.filter (fun (e : Obs.Trace.event) -> p e.Obs.Trace.kind) events)
      in
      List.iter
        (fun (kind, p) ->
          Alcotest.(check bool) (name ^ ": " ^ kind ^ " emitted") true (count p >= 1))
        [
          ("propose", function Obs.Trace.Propose _ -> true | _ -> false);
          ("vote", function Obs.Trace.Vote_sent _ -> true | _ -> false);
          ("qc", function Obs.Trace.Qc_formed _ -> true | _ -> false);
          ("commit", function Obs.Trace.Commit _ -> true | _ -> false);
        ];
      Alcotest.(check bool) (name ^ ": a span completes") true
        (List.exists (fun sp -> sp.Obs.Span.complete) (Obs.Span.reconstruct events)))
    (Marlin_runtime.Registry.all ())

(* ---------- counter reconciliation ---------- *)

let total_consensus_sent metrics =
  Array.fold_left
    (fun acc m -> acc + (Obs.Metrics.consensus_sent m).Obs.Metrics.msgs)
    0 metrics

let test_counters_reconcile () =
  Alcotest.(check int) "model: one auth per message"
    (Complexity.happy_messages Complexity.Marlin ~n:4)
    (Complexity.happy_authenticators Complexity.Marlin ~n:4);
  List.iter
    (fun (name, proto, cproto) ->
      let obs, r = observed_run proto in
      Alcotest.(check bool) (name ^ " agreement") true r.Experiment.agreement;
      let metrics = Obs.Run.metrics obs in
      let blocks = Obs.Metrics.blocks_committed metrics.(0) in
      Alcotest.(check bool) (name ^ " commits blocks") true (blocks > 5);
      let msgs = total_consensus_sent metrics in
      let model = Complexity.happy_messages cproto ~n:4 in
      let per_block = float_of_int msgs /. float_of_int blocks in
      (* counters include the final in-flight block, so the average sits
         just above the model, never a full block's worth over *)
      Alcotest.(check bool)
        (Printf.sprintf "%s msgs/block ~ %d (got %.2f)" name model per_block)
        true
        (per_block >= float_of_int model
        && per_block < float_of_int model +. 1.5);
      (* happy path: every consensus message carries one authenticator *)
      Array.iter
        (fun m ->
          let c = Obs.Metrics.consensus_sent m in
          Alcotest.(check int)
            (name ^ " auths = msgs")
            c.Obs.Metrics.msgs c.Obs.Metrics.auths)
        metrics;
      (* no view changes or timer fires disturbed the happy path *)
      Array.iter
        (fun m ->
          Alcotest.(check int) (name ^ " no view changes") 0
            (Obs.Metrics.view_changes m))
        metrics)
    [
      ("marlin", basic_marlin, Complexity.Marlin);
      ("hotstuff", basic_hotstuff, Complexity.Hotstuff);
    ]

let test_vote_bytes_reconcile () =
  let obs, _ = observed_run basic_marlin in
  let metrics = Obs.Run.metrics obs in
  (* a representative happy-path PREPARE vote: view 0, small height, no
     locked certificate — byte-identical to what replica 1 put on the wire *)
  let kc = Marlin_crypto.Keychain.create ~n:4 () in
  let bref = Block.to_ref Block.genesis in
  let partial = Qc.sign_vote kc ~signer:1 ~phase:Qc.Prepare ~view:0 bref in
  let vote =
    Message.make ~sender:1 ~view:0
      (Message.Vote { kind = Qc.Prepare; block = bref; partial; locked = None })
  in
  let expected = Message.wire_size ~sig_bytes vote in
  let c = Obs.Metrics.sent metrics.(1) ~kind:"VOTE-PREPARE" in
  Alcotest.(check bool) "votes were sent" true (c.Obs.Metrics.msgs > 0);
  let avg = float_of_int c.Obs.Metrics.bytes /. float_of_int c.Obs.Metrics.msgs in
  Alcotest.(check bool)
    (Printf.sprintf "vote bytes/msg ~ %d (got %.1f)" expected avg)
    true
    (Float.abs (avg -. float_of_int expected) <= 2.0);
  Alcotest.(check int) "one auth per vote" c.Obs.Metrics.msgs c.Obs.Metrics.auths

let test_commit_latency_histogram () =
  let obs, _ = observed_run basic_marlin in
  let metrics = Obs.Run.metrics obs in
  Array.iter
    (fun m ->
      let s = Obs.Metrics.commit_latency m in
      Alcotest.(check bool) "samples collected" true
        (s.Obs.Metrics.Stats.count > 5);
      Alcotest.(check bool) "latency positive and sane" true
        (s.Obs.Metrics.Stats.mean > 0. && s.Obs.Metrics.Stats.mean < 1.);
      Alcotest.(check bool) "percentiles ordered" true
        (s.Obs.Metrics.Stats.p50 <= s.Obs.Metrics.Stats.p95
        && s.Obs.Metrics.Stats.p95 <= s.Obs.Metrics.Stats.p99))
    metrics

(* ---------- disabled path ---------- *)

let test_disabled_sink_no_alloc () =
  let none = Obs.Sink.none in
  Alcotest.(check bool) "none is disabled" false (Obs.Sink.enabled none);
  (* warm up so any one-time setup is out of the measured window *)
  Obs.Sink.vote none ~view:0 ~height:1 ~phase:"prepare";
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.Sink.vote none ~view:0 ~height:1 ~phase:"prepare";
    Obs.Sink.qc_formed none ~view:0 ~height:1 ~phase:"prepare";
    Obs.Sink.commit none ~view:0 ~height:1 ~blocks:1 ~ops:1;
    Obs.Sink.timer_armed none ~view:0 ~after:1.0 ~cause:"view-progress"
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled hot path allocates nothing (%.0f words)" delta)
    true (delta < 1024.)

(* A metrics-only sink (no trace buffer attached) must not build trace
   event values: per emission it may allocate only the boxed timestamp the
   clock returns, nothing proportional to the event payload. The traced
   path allocates the kind + event record + buffer slot on top (~10+
   words), so a tight per-event budget catches any formatting or event
   construction leaking onto the metrics-only path. *)
let test_metrics_only_sink_alloc_bound () =
  let run = Obs.Run.create ~trace:false ~n:1 () in
  let h = Obs.Run.handle run ~clock:(fun () -> 1.0) ~replica:0 in
  Alcotest.(check bool) "enabled" true (Obs.Sink.enabled h);
  Alcotest.(check bool) "not tracing" false (Obs.Sink.tracing h);
  let rounds = 100_000 in
  (* warm up: first emissions populate the first-seen table *)
  Obs.Sink.vote h ~view:0 ~height:1 ~phase:"prepare";
  Obs.Sink.qc_formed h ~view:0 ~height:1 ~phase:"prepare";
  Obs.Sink.timer_fired h ~view:0 ~cause:"view-progress";
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    Obs.Sink.vote h ~view:0 ~height:1 ~phase:"prepare";
    Obs.Sink.qc_formed h ~view:0 ~height:1 ~phase:"prepare";
    Obs.Sink.timer_fired h ~view:0 ~cause:"view-progress"
  done;
  let per_event =
    (Gc.minor_words () -. before) /. float_of_int (3 * rounds)
  in
  Alcotest.(check bool)
    (Printf.sprintf "metrics-only emission stays under 6 words/event (%.2f)"
       per_event)
    true (per_event < 6.);
  (* and the events were in fact counted *)
  Alcotest.(check int) "qcs counted" (rounds + 1)
    (Obs.Metrics.qcs (Obs.Run.metrics run).(0))

(* ---------- exporters ---------- *)

let test_exporters () =
  let obs, _ = observed_run ~trace:true basic_marlin in
  (* CSV: unified 15-column header, label-prefixed data rows *)
  Alcotest.(check int) "header has 15 columns" 15
    (List.length (String.split_on_char ',' Obs.Run.metrics_csv_header));
  let csv = Obs.Run.metrics_csv ~label:"m" obs in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check bool) "csv nonempty" true (List.length lines > 0);
  List.iter
    (fun l ->
      Alcotest.(check bool) "row labelled" true (String.sub l 0 2 = "m,");
      Alcotest.(check int) "row has 15 columns" 15
        (List.length (String.split_on_char ',' l)))
    lines;
  Alcotest.(check bool) "per-kind vote counters" true
    (contains csv "VOTE-PREPARE");
  Alcotest.(check bool) "latency histogram rows" true
    (contains csv "commit_latency");
  Alcotest.(check bool) "event counter rows" true
    (contains csv "blocks_committed");
  (* JSON mirrors the same content *)
  let json = Obs.Run.metrics_json ~label:"m" obs in
  Alcotest.(check bool) "json labelled" true (contains json {|"label":"m"|});
  Alcotest.(check bool) "json has replicas" true (contains json {|"replicas":[|});
  Alcotest.(check bool) "json has histograms" true
    (contains json {|"commit_latency":{"count":|});
  (* JSONL trace: exactly one line per buffered event *)
  let path = Filename.temp_file "marlin_obs" ".jsonl" in
  let oc = open_out path in
  Obs.Run.write_trace ~run:"m" oc obs;
  close_out oc;
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       Alcotest.(check bool) "line carries run label" true
         (contains line {|"run":"m"|});
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "one JSONL line per event"
    (List.length (Obs.Run.trace_events obs))
    !n

(* ---------- API surface riding along ---------- *)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_config_validation () =
  let kc = Marlin_crypto.Keychain.create ~n:4 () in
  let ok = C.Config.make ~id:0 ~n:4 ~f:1 ~keychain:kc () in
  Alcotest.(check int) "defaults applied" 4 ok.C.n;
  Alcotest.(check bool) "obs defaults to disabled" false
    (Obs.Sink.enabled ok.C.obs);
  Alcotest.(check bool) "n < 3f+1 rejected" true
    (raises_invalid (fun () -> C.Config.make ~id:0 ~n:3 ~f:1 ~keychain:kc ()));
  Alcotest.(check bool) "id out of range rejected" true
    (raises_invalid (fun () -> C.Config.make ~id:4 ~n:4 ~f:1 ~keychain:kc ()));
  Alcotest.(check bool) "inverted timeouts rejected" true
    (raises_invalid (fun () ->
         C.Config.make ~id:0 ~n:4 ~f:1 ~keychain:kc ~base_timeout:2.0
           ~max_timeout:1.0 ()))

let test_timer_shim () =
  (match C.timer 1.5 with
  | C.Timer { duration; cause = C.View_progress } ->
      Alcotest.(check (float 1e-9)) "duration carried" 1.5 duration
  | _ -> Alcotest.fail "C.timer defaults to View_progress");
  (match C.timer ~cause:C.Backoff 0.5 with
  | C.Timer { cause = C.Backoff; _ } -> ()
  | _ -> Alcotest.fail "explicit cause carried");
  Alcotest.(check string) "cause label" "view-change"
    (C.timer_cause_label C.View_change)

(* ---------- the bench regression gate (Test_support.Gate) ---------- *)

module Gate = Test_support.Gate
module J = Obs.Json_lite

(* A two-record marlin-bench/1 document in the shape the bench writes. *)
let gate_doc ?(schema = Gate.schema) ?(wall = "0.0") ?(p99 = "0.123456")
    ?(verdict = "nic-queue") ?(extra = "") () =
  J.parse_exn
    (Printf.sprintf
       {|{"schema":"%s","wall_seconds":%s,"records":[
  {"target":"load","label":"a n=4","data":{"offered":4000,"latency":{"p99":%s,"hist":[1,2,3]},"wall_seconds":%s}},
  {"target":"load","label":"b n=4","data":{"verdict":"%s","sustainable":true}}%s
]}|}
       schema wall p99 wall verdict extra)

let gate_fresh doc =
  List.filter_map
    (fun r ->
      match (J.string_at [ "label" ] r, J.member "data" r) with
      | Some l, Some d -> Some (l, d)
      | _ -> None)
    (Option.get (Option.bind (J.member "records" doc) J.to_list))

let gate_paths ~baseline ~fresh =
  match Gate.check ~target:"load" baseline (gate_fresh fresh) with
  | Ok o ->
      List.map (fun (m : Gate.mismatch) -> m.Gate.label ^ "|" ^ m.Gate.path)
        o.Gate.mismatches
  | Error e -> Alcotest.failf "unexpected gate error: %s" e

let test_gate_exact () =
  let base = gate_doc () in
  let paths = Alcotest.(check (list string)) in
  paths "identical documents pass" [] (gate_paths ~baseline:base ~fresh:base);
  paths "wall_seconds differences are ignored" []
    (gate_paths ~baseline:base ~fresh:(gate_doc ~wall:"42.5" ()));
  paths "last digit of a nested number" [ "a n=4|latency.p99" ]
    (gate_paths ~baseline:base ~fresh:(gate_doc ~p99:"0.123457" ()));
  paths "changed verdict string" [ "b n=4|verdict" ]
    (gate_paths ~baseline:base ~fresh:(gate_doc ~verdict:"propagate" ()));
  (match Gate.check ~target:"load" base
           (gate_fresh (gate_doc ~p99:"0.123457" ())) with
  | Ok { Gate.mismatches = [ m ]; _ } ->
      Alcotest.(check (option string)) "baseline value" (Some "0.123456")
        m.Gate.baseline;
      Alcotest.(check (option string)) "fresh value" (Some "0.123457")
        m.Gate.fresh
  | _ -> Alcotest.fail "expected exactly one mismatch");
  let c = {|,
  {"target":"load","label":"c n=4","data":{"offered":1}}|} in
  paths "record missing from the fresh run" [ "c n=4|" ]
    (gate_paths ~baseline:(gate_doc ~extra:c ()) ~fresh:base);
  paths "extra record in the fresh run" [ "c n=4|" ]
    (gate_paths ~baseline:base ~fresh:(gate_doc ~extra:c ()));
  let fresh =
    List.map
      (fun (l, d) ->
        match d with
        | J.Obj fields when l = "b n=4" -> (l, J.Obj (("new", J.Num 1.) :: fields))
        | _ -> (l, d))
      (gate_fresh base)
  in
  (match Gate.check ~target:"load" base fresh with
  | Ok { Gate.mismatches = [ m ]; _ } ->
      Alcotest.(check string) "extra field named" "new" m.Gate.path;
      Alcotest.(check (option string)) "absent in baseline" None m.Gate.baseline;
      Alcotest.(check bool) "message says to re-bless" true
        (contains (Format.asprintf "%a" Gate.pp_mismatch m) "re-bless")
  | _ -> Alcotest.fail "expected exactly one mismatch for the extra field");
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error
       (Gate.check ~target:"load" (gate_doc ~schema:"marlin-bench/0" ())
          (gate_fresh base)));
  Alcotest.(check bool) "no records of the target rejected" true
    (Result.is_error (Gate.check ~target:"smoke" base []))

let suite =
  [
    ("trace ordering", `Quick, test_trace_ordering);
    ("every protocol emits propose, vote, qc, commit", `Quick, test_every_protocol_emits);
    ("counters reconcile with happy-path model", `Quick, test_counters_reconcile);
    ("vote bytes reconcile with wire size", `Quick, test_vote_bytes_reconcile);
    ("commit latency histogram", `Quick, test_commit_latency_histogram);
    ("disabled sink allocates nothing", `Quick, test_disabled_sink_no_alloc);
    ( "metrics-only sink allocation bound",
      `Quick,
      test_metrics_only_sink_alloc_bound );
    ("exporters (CSV/JSON/JSONL)", `Quick, test_exporters);
    ("Config.make validation", `Quick, test_config_validation);
    ("timer cause shim", `Quick, test_timer_shim);
    ("regression gate compares exactly", `Quick, test_gate_exact);
  ]

let () = Alcotest.run "obs" [ ("obs", suite) ]
