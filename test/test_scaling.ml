(* The paper's scaling claim as a test, extending test_faults' Table-I
   check from a two-point ratio to an n-sweep:

   - Marlin's view-change authenticator traffic over n in {7, 22, 64}
     fits an affine model a*n + b with small relative residuals — i.e. it
     is genuinely linear, not just "sub-quadratic between two points";
   - PBFT's view change grows superlinearly over its own sweep (its
     NEW-VIEW carries O(n) view-change messages of O(n) prepared
     certificates each), diverging clearly from Marlin's line.

   Measurement uses [Experiment.View_change] — crash the leader, time
   from timeout escalation to the next commit, count the consensus traffic
   in between — the same probe as the [bench scaling] target.  PBFT stops
   at n = 34 because verifying its O(n^2) votes per block costs O(n^3)
   wall time; superlinearity is unambiguous well before that. *)

module Cluster = Marlin_runtime.Cluster
module Experiment = Marlin_runtime.Experiment
module Registry = Marlin_runtime.Registry

let params_for n =
  let f = max 1 ((n - 1) / 3) in
  let base_timeout = 1.0 +. (float_of_int n *. 0.01) in
  {
    Cluster.default_params with
    Cluster.n;
    f;
    workload = Marlin_workload.Workload.closed_loop ~clients:8;
    base_timeout;
    max_timeout = 8. *. base_timeout;
  }

let measure name n =
  let r =
    Experiment.run (Registry.find_exn name) ~params:(params_for n)
      (Experiment.View_change { force_unhappy = false })
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s n=%d view change completed" name n)
    true
    (Float.is_finite r.Experiment.vc_latency && r.Experiment.vc_latency > 0.);
  (float_of_int n, float_of_int r.Experiment.vc_authenticators)

let sweep name ns = List.map (measure name) ns

(* Least-squares fit of y = a*n + b over the sweep. *)
let affine_fit pts =
  let len = float_of_int (List.length pts) in
  let sx = List.fold_left (fun s (x, _) -> s +. x) 0. pts in
  let sy = List.fold_left (fun s (_, y) -> s +. y) 0. pts in
  let sxx = List.fold_left (fun s (x, _) -> s +. (x *. x)) 0. pts in
  let sxy = List.fold_left (fun s (x, y) -> s +. (x *. y)) 0. pts in
  let a = ((len *. sxy) -. (sx *. sy)) /. ((len *. sxx) -. (sx *. sx)) in
  let b = (sy -. (a *. sx)) /. len in
  (a, b)

let max_relative_residual (a, b) pts =
  List.fold_left
    (fun worst (x, y) ->
      Float.max worst (Float.abs (y -. ((a *. x) +. b)) /. Float.max y 1.))
    0. pts

(* (growth in y, growth in n) across the sweep's endpoints. *)
let span_ratio pts =
  match (pts, List.rev pts) with
  | (n0, y0) :: _, (n1, y1) :: _ -> (y1 /. y0, n1 /. n0)
  | _ -> assert false

let test_marlin_linear_fit () =
  let pts = sweep "marlin" [ 7; 13; 22; 40; 64 ] in
  let a, b = affine_fit pts in
  Alcotest.(check bool)
    (Printf.sprintf "fit slope positive (a=%.2f)" a)
    true (a > 0.);
  (* A clean affine law leaves small residuals; a quadratic term over a
     9.1x n span would push the endpoints ~2x off any straight line. *)
  let resid = max_relative_residual (a, b) pts in
  Alcotest.(check bool)
    (Printf.sprintf "marlin vc authenticators fit a*n+b (max residual %.1f%%)"
       (100. *. resid))
    true (resid < 0.20);
  (* And the overall growth tracks n itself, the Table-I headline. *)
  let growth, nspan = span_ratio pts in
  Alcotest.(check bool)
    (Printf.sprintf "growth %.1fx ~ n span %.1fx" growth nspan)
    true
    (growth < 1.6 *. nspan)

let test_pbft_superlinear () =
  let ns = [ 7; 13; 22; 34 ] in
  let marlin = sweep "marlin" ns in
  let pbft = sweep "pbft" ns in
  let m_growth, nspan = span_ratio marlin in
  let p_growth, _ = span_ratio pbft in
  (* PBFT's certificate-carrying NEW-VIEW makes its authenticator growth
     pull far away from both the n span and Marlin's: over a 4.9x n span
     the quadratic model predicts ~24x growth. *)
  Alcotest.(check bool)
    (Printf.sprintf "pbft growth %.1fx superlinear vs n span %.1fx" p_growth
       nspan)
    true
    (p_growth > 2. *. nspan);
  Alcotest.(check bool)
    (Printf.sprintf "pbft growth %.1fx >= 2x marlin growth %.1fx" p_growth
       m_growth)
    true
    (p_growth >= 2. *. m_growth);
  (* At every measured n, Marlin spends fewer authenticators. *)
  List.iter2
    (fun (n, m) (_, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%.0f: marlin %.0f < pbft %.0f" n m p)
        true (m < p))
    marlin pbft

let () =
  Alcotest.run "scaling"
    [
      ( "vc authenticators vs n",
        [
          Alcotest.test_case "marlin fits a*n+b over n=7..64" `Slow
            test_marlin_linear_fit;
          Alcotest.test_case "pbft diverges superlinearly" `Slow
            test_pbft_superlinear;
        ] );
    ]
