(* Property-based adversarial schedules.

   qcheck generates random fault schedules — message drops by type/link,
   crash patterns, timeout orderings, partitions — and drives the loopback
   harness with them. The invariants:

   - SAFETY, always: no two correct replicas commit conflicting blocks,
     no matter what the network does (checked after every schedule; a
     conflicting commit also trips the protocols' internal failwith).
   - LIVENESS after healing: once drops stop and enough timeouts fire,
     every pending operation commits everywhere.

   This runs against basic and chained Marlin, both HotStuff variants and
   PBFT. *)

open Marlin_types

(* A schedule step. Drop specs carry a message-kind selector so the
   generator can target the protocols' weak points (certificates, votes,
   view-change messages) rather than only whole links. *)
type kind_sel = Any | Proposals | Votes | Certs | View_changes

type step =
  | Submit of int  (* client ops, tagged by sequence base *)
  | Timeout of int  (* replica id *)
  | Timeout_all
  | Drop_link of int * int  (* src, dst *)
  | Drop_kind of kind_sel * int  (* kind, src *)
  | Heal
  | Crash_one  (* crash the lowest live id, at most once per schedule *)

let kind_matches sel (m : Message.t) =
  match (sel, m.Message.payload) with
  | Any, _ -> true
  | Proposals, (Message.Propose _ | Message.Pre_prepare _) -> true
  | Votes, Message.Vote _ -> true
  | Certs, Message.Phase_cert _ -> true
  | View_changes, (Message.View_change _ | Message.New_view _) -> true
  | (Proposals | Votes | Certs | View_changes), _ -> false

let gen_step n =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Submit k) (1 -- 3));
        (2, map (fun id -> Timeout id) (0 -- (n - 1)));
        (2, return Timeout_all);
        (2, map2 (fun a b -> Drop_link (a, b)) (0 -- (n - 1)) (0 -- (n - 1)));
        ( 3,
          map2
            (fun k src -> Drop_kind (k, src))
            (oneofl [ Any; Proposals; Votes; Certs; View_changes ])
            (0 -- (n - 1)) );
        (2, return Heal);
        (1, return Crash_one);
      ])

let gen_schedule n = QCheck.Gen.(list_size (5 -- 25) (gen_step n))

let print_step = function
  | Submit k -> Printf.sprintf "Submit %d" k
  | Timeout id -> Printf.sprintf "Timeout %d" id
  | Timeout_all -> "Timeout_all"
  | Drop_link (a, b) -> Printf.sprintf "Drop_link (%d,%d)" a b
  | Drop_kind (k, src) ->
      Printf.sprintf "Drop_kind (%s,%d)"
        (match k with
        | Any -> "Any"
        | Proposals -> "Proposals"
        | Votes -> "Votes"
        | Certs -> "Certs"
        | View_changes -> "View_changes")
        src
  | Heal -> "Heal"
  | Crash_one -> "Crash_one"

let arb_schedule n =
  QCheck.make ~print:(fun s -> String.concat "; " (List.map print_step s))
    (gen_schedule n)

module Run (P : Marlin_core.Consensus_intf.PROTOCOL) = struct
  module H = Test_support.Harness.Make (P)

  (* Apply a schedule; returns (safety_held, lived_after_healing). *)
  let execute ?(n = 4) ?(f = 1) schedule =
    let t = H.create ~n ~f () in
    H.start t;
    let seq = ref 0 in
    let crashed = ref false in
    let drops : (kind_sel * int option * int option) list ref = ref [] in
    let install_filter () =
      let active = !drops in
      H.set_filter t (fun ~src ~dst m ->
          not
            (List.exists
               (fun (sel, src', dst') ->
                 (match src' with None -> true | Some s -> s = src)
                 && (match dst' with None -> true | Some d -> d = dst)
                 && kind_matches sel m)
               active))
    in
    List.iter
      (fun step ->
        match step with
        | Submit k ->
            for _ = 1 to k do
              incr seq;
              H.submit t (Operation.make ~client:1 ~seq:!seq ~body:"")
            done
        | Timeout id -> if id < n then H.timeout t id
        | Timeout_all -> H.timeout_all t
        | Drop_link (a, b) ->
            if a <> b then begin
              drops := (Any, Some a, Some b) :: !drops;
              install_filter ()
            end
        | Drop_kind (sel, src) ->
            drops := (sel, Some src, None) :: !drops;
            install_filter ()
        | Heal ->
            drops := [];
            H.clear_filter t
        | Crash_one ->
            if not !crashed then begin
              crashed := true;
              (* crash the current lowest live id; with f = 1 only once *)
              H.crash t 0
            end)
      schedule;
    let safety_mid = H.check_safety t in
    (* Heal and pump timeouts until every submitted op has committed at
       every live replica (see [Harness.pump_timeouts]). *)
    H.clear_filter t;
    drops := [];
    incr seq;
    H.submit t (Operation.make ~client:1 ~seq:!seq ~body:"");
    let target = !seq in
    let all_live_have_everything () =
      List.for_all
        (fun (node : H.node) -> List.length (H.committed_ops t node.H.id) = target)
        (H.live t)
    in
    ignore (H.pump_timeouts t ~until:all_live_have_everything);
    (safety_mid && H.check_safety t, all_live_have_everything ())
end

module Run_marlin = Run (Marlin_runtime.Registry.Marlin)
module Run_chained_marlin = Run (Marlin_runtime.Registry.Chained_marlin)
module Run_hotstuff = Run (Marlin_runtime.Registry.Hotstuff)
module Run_chained_hotstuff = Run (Marlin_runtime.Registry.Chained_hotstuff)
module Run_pbft = Run (Marlin_core.Pbft)

let safety_and_liveness name execute =
  QCheck.Test.make ~count:150 ~name (arb_schedule 4) (fun schedule ->
      let safe, live = execute schedule in
      if not safe then QCheck.Test.fail_report "safety violated";
      if not live then QCheck.Test.fail_report "no progress after healing";
      true)

let qcheck_cases =
  [
    safety_and_liveness "marlin: random schedules (safety + healing liveness)"
      (Run_marlin.execute ~n:4 ~f:1);
    safety_and_liveness "chained marlin: random schedules"
      (Run_chained_marlin.execute ~n:4 ~f:1);
    safety_and_liveness "hotstuff: random schedules" (Run_hotstuff.execute ~n:4 ~f:1);
    safety_and_liveness "chained hotstuff: random schedules"
      (Run_chained_hotstuff.execute ~n:4 ~f:1);
    safety_and_liveness "pbft: random schedules" (Run_pbft.execute ~n:4 ~f:1);
    QCheck.Test.make ~count:40 ~name:"marlin: random schedules at n=7"
      (arb_schedule 7)
      (fun schedule ->
        let safe, live = Run_marlin.execute ~n:7 ~f:2 schedule in
        safe && live);
    QCheck.Test.make ~count:40 ~name:"chained marlin: random schedules at n=7"
      (arb_schedule 7)
      (fun schedule ->
        let safe, live = Run_chained_marlin.execute ~n:7 ~f:2 schedule in
        safe && live);
  ]

let suite = List.map QCheck_alcotest.to_alcotest qcheck_cases

let () = Alcotest.run "schedules" [ ("schedules", suite) ]
