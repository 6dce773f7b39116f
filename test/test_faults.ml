(* The fault-injection subsystem, end to end:
   - every catalogue scenario leaves every secure protocol safe, and the
     cluster commits again once the disruption settles;
   - view-change authenticator traffic grows linearly in n for Marlin and
     HotStuff, as Table I predicts (and nowhere near quadratically);
   - equivocation cannot violate safety for any registered protocol except
     twophase-insecure (its Figure 2 livelock is staged in test_liveness);
   - random crash/recover churn (qcheck) never violates agreement. *)

module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Registry = Marlin_runtime.Registry
module Scenario = Marlin_faults.Scenario
module Catalogue = Marlin_faults.Catalogue
module Complexity = Marlin_analysis.Complexity

(* The bench harness's deployment rule: view timers scale with cluster
   size so view changes do not thrash under load. *)
let params_for (sc : Scenario.t) =
  let n = (3 * sc.Scenario.f) + 1 in
  let base_timeout = 1.0 +. (float_of_int n *. 0.04) in
  {
    (Cluster.params_for_f sc.Scenario.f) with
    Cluster.base_timeout;
    max_timeout = 8. *. base_timeout;
  }

let run_sc name sc =
  Experiment.run (Registry.find_exn name) ~params:(params_for sc)
    (Experiment.Scenario sc)

(* ---------- catalogue: safety and liveness ---------- *)

let test_catalogue_safety_liveness () =
  List.iter
    (fun (sc : Scenario.t) ->
      List.iter
        (fun pname ->
          let r = run_sc pname sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: no conflicting commits" sc.Scenario.name
               pname)
            true r.Experiment.agreement;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: commits resume after the fault settles"
               sc.Scenario.name pname)
            true r.Experiment.recovered)
        [ "marlin"; "hotstuff"; "chained-marlin"; "chained-hotstuff" ])
    Catalogue.all

(* ---------- Table I: view-change authenticators stay linear ---------- *)

let test_vc_authenticators_linear () =
  let measure pname f =
    let sc = Catalogue.leader_crash ~f ~phase:`Prepare () in
    let r = run_sc pname sc in
    Alcotest.(check bool) (Printf.sprintf "%s f=%d recovered" pname f) true
      r.Experiment.recovered;
    r.Experiment.vc_authenticators
  in
  let predicted p n =
    (Complexity.evaluate p ~n ~u:(1 lsl 20) ~c:1024 ~lambda:256)
      .Complexity.authenticators
  in
  let ratios =
    List.map
      (fun (pname, cp, (pinned4, pinned10)) ->
        let a4 = measure pname 1 and a10 = measure pname 3 in
        (* the runs are deterministic: the measured counts are exact *)
        Alcotest.(check (pair int int))
          (pname ^ ": vc authenticators at n=4 and n=10")
          (pinned4, pinned10) (a4, a10);
        let measured = float_of_int a10 /. float_of_int a4 in
        (* Table I: authenticators are Theta(n) for both protocols, so
           growing n from 4 to 10 should scale traffic by ~2.5; the window
           also catches a few happy-path messages, hence the slack. A
           quadratic protocol would scale by 6.25, so 1.7x slack still
           separates the two models cleanly. *)
        let linear = predicted cp 10 /. predicted cp 4 in
        let quadratic = linear *. linear in
        Alcotest.(check bool)
          (Printf.sprintf "%s: auth growth %.2f within linear model %.2f x slack"
             pname measured linear)
          true
          (measured <= linear *. 1.7);
        Alcotest.(check bool)
          (Printf.sprintf "%s: auth growth %.2f well below quadratic %.2f" pname
             measured quadratic)
          true
          (measured < 0.8 *. quadratic);
        (pname, a4, a10))
      [
        ("marlin", Complexity.Marlin, (21, 85));
        ("hotstuff", Complexity.Hotstuff, (25, 94));
      ]
  in
  (* at equal n, HotStuff's extra phase costs at least as many
     authenticators as Marlin's two-phase view change *)
  match ratios with
  | [ (_, m4, m10); (_, h4, h10) ] ->
      Alcotest.(check bool) "hotstuff >= marlin at n=4" true (h4 >= m4);
      Alcotest.(check bool) "hotstuff >= marlin at n=10" true (h10 >= m10)
  | _ -> assert false

(* ---------- equivocation vs safety, per registered protocol ---------- *)

let test_equivocation_cannot_violate_safety () =
  List.iter
    (fun (name, proto) ->
      if name <> "twophase-insecure" then
        let sc = Catalogue.equivocating_leader in
        let r =
          Experiment.run proto ~params:(params_for sc) (Experiment.Scenario sc)
        in
        Alcotest.(check bool)
          (name ^ ": equivocating leader cannot violate safety")
          true r.Experiment.agreement)
    (Registry.all ())

(* ---------- fault steps land in the trace ---------- *)

let test_fault_events_traced () =
  let sc = Catalogue.crash_recover in
  let obs = Marlin_obs.Run.create ~trace:true ~n:4 () in
  let r =
    Experiment.run (Registry.find_exn "marlin")
      ~params:{ (params_for sc) with Cluster.obs = Some obs }
      (Experiment.Scenario sc)
  in
  Alcotest.(check bool) "traced run still recovers" true r.Experiment.recovered;
  let faults =
    List.filter_map
      (fun (e : Marlin_obs.Trace.event) ->
        match e.Marlin_obs.Trace.kind with
        | Marlin_obs.Trace.Fault_injected { label } ->
            Some (e.Marlin_obs.Trace.time, e.Marlin_obs.Trace.replica, label)
        | _ -> None)
      (Marlin_obs.Run.trace_events obs)
  in
  Alcotest.(check (list (triple (float 1e-9) int string)))
    "one fault-injected event per step, scripted time/target/label"
    [ (2.0, 2, "crash 2"); (5.0, 2, "recover 2") ]
    faults;
  (* and the JSONL round trip preserves them *)
  let tmp = Filename.temp_file "marlin_fault_trace" ".jsonl" in
  let oc = open_out tmp in
  Marlin_obs.Run.write_trace ~run:"faults" oc obs;
  close_out oc;
  let back = Marlin_obs.Trace_reader.read_file tmp in
  Sys.remove tmp;
  let round_tripped =
    List.filter
      (fun ((_run, e) : string option * Marlin_obs.Trace.event) ->
        match e.Marlin_obs.Trace.kind with
        | Marlin_obs.Trace.Fault_injected _ -> true
        | _ -> false)
      back
  in
  Alcotest.(check int) "fault-injected events survive the JSONL round trip" 2
    (List.length round_tripped)

(* ---------- random crash/recover churn (qcheck) ---------- *)

let scenario_of_churn churn =
  let steps =
    List.concat_map
      (fun (id, down, dur) ->
        [
          Scenario.at down (Scenario.Crash id);
          Scenario.at (down +. dur) (Scenario.Recover id);
        ])
      churn
  in
  let last =
    List.fold_left (fun acc (s : Scenario.step) -> Float.max acc s.Scenario.at)
      0. steps
  in
  Scenario.make ~name:"random-churn" ~info:"random crash/recover churn" ~steps
    ~settle_at:last ~run_for:(last +. 4.) ()

let churn_gen =
  QCheck.make
    ~print:(fun churn ->
      String.concat "; "
        (List.map
           (fun (id, down, dur) -> Printf.sprintf "(%d, %.2f, %.2f)" id down dur)
           churn))
    QCheck.Gen.(
      list_size (int_range 1 3)
        (triple (int_range 0 3) (float_range 0.5 4.0) (float_range 0.5 3.0)))

(* Crash faults alone can never violate agreement — even when more than f
   replicas are down at once (liveness may pause; safety must not). *)
let prop_churn_preserves_agreement =
  QCheck.Test.make ~name:"random crash/recover churn preserves agreement"
    ~count:12 churn_gen (fun churn ->
      let sc = scenario_of_churn churn in
      let r = run_sc "marlin" sc in
      r.Experiment.agreement)

let suite =
  [
    ( "catalogue: safety + liveness (marlin, hotstuff, chained)",
      `Quick,
      test_catalogue_safety_liveness );
    ("Table I: vc authenticators linear in n", `Quick, test_vc_authenticators_linear);
    ( "equivocation cannot violate safety (all registered protocols)",
      `Quick,
      test_equivocation_cannot_violate_safety );
    ("fault steps land in the trace + JSONL round trip", `Quick,
      test_fault_events_traced );
    QCheck_alcotest.to_alcotest prop_churn_preserves_agreement;
  ]

let () = Alcotest.run "faults" [ ("faults", suite) ]
