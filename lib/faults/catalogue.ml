open Scenario

(* Scenario times assume the benchmark clusters' view timers (~1.2 s base
   at f = 1): faults land after a 2 s warm-up and every scenario leaves
   several timeout-plus-backoff periods of slack before [run_for]. *)

let warm = 2.0

(* With 40 ms one-way latency a proposal broadcast is answered by votes
   ~80 ms later and the certificate lands ~160 ms after that, so +5 ms
   catches the leader mid-PREPARE and +90 ms mid-COMMIT. *)
let leader_crash ?(f = 1) ?(phase = `Prepare) () =
  let offset, tag =
    match phase with `Prepare -> (0.005, "prepare") | `Commit -> (0.090, "commit")
  in
  make
    ~name:(Printf.sprintf "leader-crash-%s" tag)
    ~info:
      (Printf.sprintf
         "crash the view-0 leader mid-%s phase; measure the view change" tag)
    ~f
    ~steps:[ at (warm +. offset) (Crash 0) ]
    ~settle_at:(warm +. offset) ~run_for:12. ()

(* each crash lands after the previous view change has completed, so the
   cluster re-elects under repeated leader loss; f = 3 keeps the three
   crashed replicas within the fault budget *)
let cascading_leaders =
  make ~name:"cascading-leaders"
    ~info:"crash leaders 0, then 1, then 2, one view change apart" ~f:3
    ~steps:[ at warm (Crash 0); at (warm +. 3.) (Crash 1); at (warm +. 6.) (Crash 2) ]
    ~settle_at:(warm +. 6.) ~run_for:16. ()

let crash_recover =
  make ~name:"crash-recover"
    ~info:"a follower crashes, recovers, and must catch up with the chain"
    ~steps:[ at warm (Crash 2); at (warm +. 3.) (Recover 2) ]
    ~settle_at:(warm +. 3.) ~run_for:10. ()

let partition_heal =
  make ~name:"partition-heal"
    ~info:"split 2|2 (no quorum anywhere), heal after 3 s"
    ~steps:
      [ at warm (Partition [ [ 0; 1 ]; [ 2; 3 ] ]); at (warm +. 3.) Heal ]
    ~settle_at:(warm +. 3.) ~run_for:10. ()

let pre_gst_churn =
  make ~name:"pre-gst-churn"
    ~info:"lossy, slow and duplicating links until GST at 4 s, then heal"
    ~steps:
      [
        at 0. (Drop_fraction 0.15);
        at 0. (Delay_links 0.08);
        at 0. (Duplicate 0.10);
        at 4. Heal;
      ]
    ~settle_at:4. ~run_for:12. ()

let equivocating_leader =
  make ~name:"equivocating-leader"
    ~info:"the view-0 leader proposes conflicting blocks to disjoint halves"
    ~steps:[ at 0. (Byzantine (0, Equivocator)) ]
    ~settle_at:warm ~run_for:10. ()

let silent_leader =
  make ~name:"silent-leader"
    ~info:"the view-0 leader never sends a word; liveness needs a view change"
    ~steps:[ at 0. (Byzantine (0, Silent_leader)) ]
    ~settle_at:0. ~run_for:10. ()

let vote_withholder =
  make ~name:"vote-withholder"
    ~info:"one replica never votes; quorums must form without it"
    ~steps:[ at 0. (Byzantine (3, Vote_withholder)) ]
    ~settle_at:warm ~run_for:8. ()

let stale_qc_voter =
  make ~name:"stale-qc-voter"
    ~info:
      "one replica advertises a stale highQC in view changes; crash the \
       leader to force one"
    ~steps:[ at 0. (Byzantine (2, Stale_qc_voter)); at warm (Crash 0) ]
    ~settle_at:warm ~run_for:12. ()

let all =
  [
    leader_crash ~phase:`Prepare ();
    leader_crash ~phase:`Commit ();
    cascading_leaders;
    crash_recover;
    partition_heal;
    pre_gst_churn;
    equivocating_leader;
    silent_leader;
    vote_withholder;
    stale_qc_voter;
  ]
