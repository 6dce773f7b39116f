(* Tests for the discrete-event simulator: RNG determinism, event-queue
   ordering, the clock, and the network model (latency, bandwidth FIFO,
   crashes, partitions, config validation). *)

open Marlin_sim
open Marlin_types
open Test_support.Hostile

let noop_msg sender =
  Message.make ~sender ~view:0 (Message.Client_reply { client = 0; seq = 0 })

(* ---------- rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true (Rng.next a <> Rng.next c)

let test_rng_split_independence () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let child_vals = List.init 10 (fun _ -> Rng.next child) in
  let parent_vals = List.init 10 (fun _ -> Rng.next parent) in
  Alcotest.(check bool) "streams differ" true (child_vals <> parent_vals)

let test_rng_ranges () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 2.5);
    let e = Rng.exponential rng ~mean:0.1 in
    Alcotest.(check bool) "exponential positive" true (e > 0.)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:0.25
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "empirical mean within 5%" true
    (Float.abs (mean -. 0.25) < 0.0125)

(* ---------- event queue ---------- *)

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  Event_queue.push q ~time:1.0 "a2";
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order, FIFO ties" [ "a"; "a2"; "b"; "c" ]
    (List.rev !order)

let test_event_queue_stress () =
  let q = Event_queue.create () in
  let rng = Rng.create ~seed:9 in
  for i = 0 to 999 do
    Event_queue.push q ~time:(Rng.float rng 100.) i
  done;
  Alcotest.(check int) "length" 1000 (Event_queue.length q);
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, _) ->
        Alcotest.(check bool) "monotone" true (t >= !last);
        last := t;
        incr count;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "drained all" 1000 !count;
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_releases_popped () =
  (* Popped values must not stay reachable from the queue's vacated
     slots: every popped value is collectable while the rest stay held. *)
  let q = Event_queue.create () in
  let n = 200 in
  let weak = Weak.create n in
  let fill () =
    let rng = Rng.create ~seed:4 in
    for i = 0 to n - 1 do
      let v = ref i in
      Weak.set weak i (Some v);
      Event_queue.push q ~time:(float_of_int (Rng.int rng 50)) v
    done
  in
  let popped = Array.make n false in
  let pop_some k =
    for _ = 1 to k do
      match Event_queue.pop q with
      | Some (_, v) -> popped.(!v) <- true
      | None -> Alcotest.fail "queue ran dry"
    done
  in
  fill ();
  pop_some (n - 7);
  Gc.full_major ();
  Alcotest.(check int) "seven still queued" 7 (Event_queue.length q);
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "value %d held iff still queued" i)
      (not popped.(i)) (Weak.check weak i)
  done

(* A slab slot is reused by the next push after its value is popped. Grow
   the queue, drain it, refill it with fewer values than it has room for
   and pop some of those: every popped value, first fill and refill
   alike, must be collectable, and every queued one still held. *)
let test_event_queue_refill_releases () =
  let q = Event_queue.create () in
  let first = 300 and refill = 120 and left = 9 in
  let weak = Weak.create (first + refill) in
  let fill ~from k =
    let rng = Rng.create ~seed:from in
    for i = from to from + k - 1 do
      let v = ref i in
      Weak.set weak i (Some v);
      Event_queue.push q ~time:(float_of_int (Rng.int rng 40)) v
    done
  in
  let popped = Array.make (first + refill) false in
  let pop_some k =
    for _ = 1 to k do
      let v = Event_queue.pop_min q in
      popped.(!v) <- true
    done
  in
  fill ~from:0 first;
  pop_some first;
  fill ~from:first refill;
  pop_some (refill - left);
  Gc.full_major ();
  Alcotest.(check int) "still queued" left (Event_queue.length q);
  for i = 0 to first + refill - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "value %d held iff still queued" i)
      (not popped.(i)) (Weak.check weak i)
  done

(* Once the queue has grown, pushing and popping heap values allocates
   nothing. The times are boxed beforehand: a float read from a flat
   array would be boxed again to be passed to [push]. *)
let test_event_queue_no_alloc () =
  let q = Event_queue.create () in
  let n = 5000 in
  let rng = Rng.create ~seed:12 in
  let events =
    Array.init n (fun i -> (0.040 +. Rng.float rng 0.001 +. float_of_int (i mod 7), ref i))
  in
  let round () =
    for i = 0 to n - 1 do
      let time, v = events.(i) in
      Event_queue.push q ~time v
    done;
    let sum = ref 0 in
    while not (Event_queue.is_empty q) do
      sum := !sum + !(Event_queue.pop_min q)
    done;
    !sum
  in
  ignore (round ());
  let before = Gc.minor_words () in
  let sum = round () + round () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "minor words for 10k pushes and pops" 0 (int_of_float words);
  Alcotest.(check int) "every value popped" (n * (n - 1)) sum

let test_event_queue_high_water () =
  let q = Event_queue.create () in
  let push k = for i = 1 to k do Event_queue.push q ~time:(float_of_int i) i done in
  let drain () = while not (Event_queue.is_empty q) do ignore (Event_queue.pop_min q) done in
  push 40;
  drain ();
  Alcotest.(check int) "drained" 0 (Event_queue.length q);
  Alcotest.(check int) "mark survives the drain" 40 (Event_queue.max_length q);
  push 10;
  Alcotest.(check int) "refill below the mark" 40 (Event_queue.max_length q);
  push 50;
  Alcotest.(check int) "regrow past the mark" 60 (Event_queue.max_length q);
  drain ();
  Alcotest.(check (float 0.)) "next_time of empty" infinity
    (Event_queue.next_time q)

(* Naive reference model: a list sorted by time, where a new entry goes
   after every entry at its own time (the queue's FIFO tie-break). *)
module Naive = struct
  type 'a t = { mutable entries : (float * 'a) list }

  let create () = { entries = [] }

  let push t ~time v =
    let rec ins = function
      | (t', _) :: _ as rest when time < t' -> (time, v) :: rest
      | e :: rest -> e :: ins rest
      | [] -> [ (time, v) ]
    in
    t.entries <- ins t.entries

  let pop t =
    match t.entries with
    | [] -> None
    | e :: rest ->
        t.entries <- rest;
        Some e

  let peek_time t = match t.entries with [] -> None | (time, _) :: _ -> Some time
end

let queue_model_test =
  (* Drive the event queue and the naive model with the same random op
     sequence and require identical observable behaviour. Times are
     quantised (i/8 over a narrow range) so equal times are common,
     with a sparse far tail. Peeks, both pop forms and full drains
     followed by refills interleave freely. *)
  let open QCheck in
  let tie_time = Gen.map (fun i -> float_of_int i /. 8.) (Gen.int_bound 24) in
  let op_gen =
    Gen.(
      frequency
        [
          (5, map (fun t -> `Push t) tie_time);
          (1, map (fun i -> `Push (1e6 +. (float_of_int i *. 64.))) (int_bound 50));
          (3, return `Pop);
          (2, return `Pop_min);
          (2, return `Peek);
          (1, return `Drain);
        ])
  in
  Test.make ~count:200 ~name:"event queue == naive sorted list"
    (make
       ~print:(fun l -> string_of_int (List.length l) ^ " ops")
       (Gen.list_size Gen.(10 -- 200) op_gen))
    (fun ops ->
      let q = Event_queue.create () in
      let m = Naive.create () in
      let next_value = ref 0 in
      let fresh () =
        incr next_value;
        !next_value
      in
      let pop () = Event_queue.pop q = Naive.pop m in
      let agree () =
        Event_queue.peek_time q = Naive.peek_time m
        && Event_queue.next_time q
           = Option.value ~default:infinity (Naive.peek_time m)
        && Event_queue.length q = List.length Naive.(m.entries)
      in
      let rec drain () = agree () && (Event_queue.is_empty q || (pop () && drain ())) in
      List.for_all
        (fun op ->
          match op with
          | `Push time ->
              let v = fresh () in
              Naive.push m ~time v;
              Event_queue.push q ~time v;
              true
          | `Pop -> pop ()
          | `Pop_min -> (
              match Naive.pop m with
              | None -> Event_queue.is_empty q
              | Some (time, _) as b ->
                  let t = Event_queue.next_time q in
                  let v = Event_queue.pop_min q in
                  b = Some (t, v) && time = t)
          | `Peek -> agree ()
          | `Drain -> drain ())
        ops
      && drain ())

let queue_stable_sort_test =
  (* Small queues with few distinct times: every pop must return the
     first entry of a stable sort by time of what is pending (in push
     order, so equal times pop in push order). Runs of pushes and pops
     keep the queue at 0 to 3 entries most of the time, where a sift
     walks zero or one level, and drains empty it for a refill. *)
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map (fun i -> `Push (float_of_int i)) (int_bound 2));
          (3, return `Pop);
          (1, return `Drain);
        ])
  in
  Test.make ~count:500 ~name:"event queue pops a stable sort by (time, push order)"
    (make
       ~print:(fun ops ->
         String.concat " "
           (List.map
              (function
                | `Push t -> Printf.sprintf "push %g" t
                | `Pop -> "pop"
                | `Drain -> "drain")
              ops))
       (Gen.list_size Gen.(0 -- 40) op_gen))
    (fun ops ->
      let q = Event_queue.create () in
      let pending = ref [] (* (time, value), oldest first *) and next = ref 0 in
      let ref_pop () =
        match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !pending with
        | [] -> None
        | ((_, v) as e) :: _ ->
            pending := List.filter (fun (_, w) -> w <> v) !pending;
            Some e
      in
      let step = function
        | `Push time ->
            incr next;
            pending := !pending @ [ (time, !next) ];
            Event_queue.push q ~time !next;
            true
        | `Pop -> Event_queue.pop q = ref_pop ()
        | `Drain ->
            let rec drain () =
              match ref_pop () with
              | None -> Event_queue.is_empty q
              | Some (time, v) ->
                  Event_queue.next_time q = time && Event_queue.pop_min q = v && drain ()
            in
            drain ()
      in
      List.for_all step ops && Event_queue.length q = List.length !pending
      && step `Drain)

(* ---------- sim clock ---------- *)

let test_sim_run_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule_in sim ~delay:0.5 (fun () -> log := ("b", Sim.now sim) :: !log);
  Sim.schedule_in sim ~delay:0.1 (fun () ->
      log := ("a", Sim.now sim) :: !log;
      (* events scheduled from inside events run too *)
      Sim.schedule_in sim ~delay:0.1 (fun () -> log := ("a2", Sim.now sim) :: !log));
  Sim.run sim;
  match List.rev !log with
  | [ ("a", t1); ("a2", t2); ("b", t3) ] ->
      Alcotest.(check (float 1e-9)) "t1" 0.1 t1;
      Alcotest.(check (float 1e-9)) "t2" 0.2 t2;
      Alcotest.(check (float 1e-9)) "t3" 0.5 t3
  | other -> Alcotest.failf "unexpected order (%d events)" (List.length other)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  List.iter
    (fun d -> Sim.schedule_in sim ~delay:d (fun () -> incr fired))
    [ 0.1; 0.2; 0.9 ];
  Sim.run ~until:0.5 sim;
  Alcotest.(check int) "two fired" 2 !fired;
  Alcotest.(check (float 1e-9)) "clock at until" 0.5 (Sim.now sim);
  Alcotest.(check int) "one pending" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "all fired" 3 !fired

let test_sim_past_events_clamp () =
  let sim = Sim.create () in
  Sim.schedule_in sim ~delay:1.0 (fun () ->
      Sim.schedule_at sim ~time:0.2 (fun () ->
          Alcotest.(check (float 1e-9)) "clamped to now" 1.0 (Sim.now sim)));
  Sim.run sim

(* ---------- network ---------- *)

let make_net ?(config = Netsim.default_config) ?(endpoints = 4) () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let net = Netsim.create sim rng config ~endpoints in
  (sim, net)

let test_net_delivery_latency () =
  let config =
    { Netsim.latency = 0.04; jitter = 0.; bandwidth_bps = infinity }
  in
  let sim, net = make_net ~config () in
  let received = ref None in
  Netsim.register net ~id:1 (fun ~src msg ->
      received := Some (src, Message.type_name msg, Sim.now sim));
  Netsim.send net ~src:0 ~dst:1 ~size:100 (noop_msg 0);
  Sim.run sim;
  match !received with
  | Some (src, _, t) ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check (float 1e-9)) "arrives after latency" 0.04 t
  | None -> Alcotest.fail "not delivered"

let test_net_bandwidth_fifo () =
  (* 1 Mbps uplink: a 125_000-byte message takes 1 s to serialize; two
     queued messages serialize back to back. *)
  let config =
    { Netsim.latency = 0.; jitter = 0.; bandwidth_bps = 1e6 }
  in
  let sim, net = make_net ~config () in
  let times = ref [] in
  Netsim.register net ~id:1 (fun ~src:_ _ -> times := Sim.now sim :: !times);
  Netsim.send net ~src:0 ~dst:1 ~size:125_000 (noop_msg 0);
  Netsim.send net ~src:0 ~dst:1 ~size:125_000 (noop_msg 0);
  Sim.run sim;
  match List.rev !times with
  | [ t1; t2 ] ->
      Alcotest.(check (float 1e-6)) "first after 1s" 1.0 t1;
      Alcotest.(check (float 1e-6)) "second queued behind" 2.0 t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_net_self_send_is_free () =
  let config =
    { Netsim.default_config with latency = 0.04; bandwidth_bps = 1e3 }
  in
  let sim, net = make_net ~config () in
  let at = ref None in
  Netsim.register net ~id:0 (fun ~src:_ _ -> at := Some (Sim.now sim));
  Netsim.send net ~src:0 ~dst:0 ~size:1_000_000 (noop_msg 0);
  Sim.run sim;
  Alcotest.(check (option (float 1e-9))) "immediate" (Some 0.) !at

let test_net_earliest () =
  let config =
    { Netsim.latency = 0.01; jitter = 0.; bandwidth_bps = infinity }
  in
  let sim, net = make_net ~config () in
  let at = ref None in
  Netsim.register net ~id:1 (fun ~src:_ _ -> at := Some (Sim.now sim));
  (* CPU busy until t=0.5: message departs then, arrives 0.51. *)
  Netsim.send net ~earliest:0.5 ~src:0 ~dst:1 ~size:10 (noop_msg 0);
  Sim.run sim;
  Alcotest.(check (option (float 1e-9))) "departs at earliest" (Some 0.51) !at

let test_net_crash () =
  let sim, net = make_net () in
  let got = ref 0 in
  Netsim.register net ~id:1 (fun ~src:_ _ -> incr got);
  Netsim.register net ~id:2 (fun ~src:_ _ -> incr got);
  Netsim.Fault.crash net ~id:1;
  Alcotest.(check bool) "crashed" true (Netsim.Fault.is_crashed net ~id:1);
  Netsim.send net ~src:0 ~dst:1 ~size:10 (noop_msg 0);
  (* crashed sender *)
  Netsim.send net ~src:1 ~dst:2 ~size:10 (noop_msg 1);
  Netsim.send net ~src:0 ~dst:2 ~size:10 (noop_msg 0);
  Sim.run sim;
  Alcotest.(check int) "only the healthy pair delivered" 1 !got

let test_net_link_filter () =
  let sim, net = make_net () in
  let got = ref [] in
  for id = 0 to 3 do
    Netsim.register net ~id (fun ~src _ -> got := (src, id) :: !got)
  done;
  (* Partition {0,1} | {2,3}. *)
  Netsim.Fault.set_link_filter net
    (Some (fun ~src ~dst _msg -> src / 2 = dst / 2));
  Netsim.send net ~src:0 ~dst:1 ~size:10 (noop_msg 0);
  Netsim.send net ~src:0 ~dst:2 ~size:10 (noop_msg 0);
  Netsim.send net ~src:3 ~dst:2 ~size:10 (noop_msg 3);
  Sim.run sim;
  Alcotest.(check int) "two delivered" 2 (List.length !got);
  Netsim.Fault.set_link_filter net None;
  Netsim.send net ~src:0 ~dst:2 ~size:10 (noop_msg 0);
  Sim.run sim;
  Alcotest.(check int) "healed" 3 (List.length !got)

let test_net_rejects_config () =
  let c = Netsim.default_config in
  List.iter
    (fun (field, config) ->
      Alcotest.(check bool)
        (field ^ " rejected by name") true
        (rejected_naming field (fun () -> make_net ~config ())))
    [
      ("latency", { c with latency = Float.nan });
      ("jitter", { c with jitter = -0.5 });
      ("bandwidth_bps", { c with bandwidth_bps = 0. });
    ]

let test_net_stats () =
  let sim, net = make_net () in
  Netsim.register net ~id:1 (fun ~src:_ _ -> ());
  let metered = ref 0 in
  Netsim.on_send net (Some (fun ~src:_ ~dst:_ ~size _msg -> metered := !metered + size));
  Netsim.send net ~src:0 ~dst:1 ~size:100 (noop_msg 0);
  Netsim.send net ~src:0 ~dst:1 ~size:50 (noop_msg 0);
  Sim.run sim;
  let stats = Netsim.stats net in
  Alcotest.(check int) "messages" 2 stats.Netsim.messages;
  Alcotest.(check int) "bytes" 150 stats.Netsim.bytes;
  Alcotest.(check int) "meter saw bytes" 150 !metered;
  Netsim.reset_stats net;
  Alcotest.(check int) "reset" 0 (Netsim.stats net).Netsim.messages

let test_net_stats_snapshot () =
  let sim, net = make_net () in
  Netsim.send net ~src:0 ~dst:1 ~size:100 (noop_msg 0);
  let before = Netsim.stats net in
  Netsim.send net ~src:0 ~dst:1 ~size:50 (noop_msg 0);
  Sim.run sim;
  Alcotest.(check int) "snapshot keeps its count" 1 before.Netsim.messages;
  Alcotest.(check int) "snapshot keeps its bytes" 100 before.Netsim.bytes;
  Alcotest.(check int) "live count moved on" 2 (Netsim.stats net).Netsim.messages

(* An infinite delay would read as a lost copy ([Netsim.post] returns
   [infinity] for those), so it is rejected with the other bad values. *)
let test_net_fault_values () =
  let _, net = make_net () in
  let rejects name f =
    Alcotest.(check bool) (name ^ " rejected") true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun extra ->
      rejects (Printf.sprintf "delay_links %g" extra) (fun () ->
          Netsim.Fault.delay_links net ~extra))
    [ -1.; Float.nan; infinity ];
  rejects "drop_fraction 1" (fun () -> Netsim.Fault.drop_fraction net ~p:1.);
  rejects "duplicate -0.1" (fun () -> Netsim.Fault.duplicate net ~p:(-0.1));
  Netsim.Fault.delay_links net ~extra:0.5

(* [post] is [send] without the delivery: over a lossy, duplicating,
   jittery network, each posted copy's arrival is the instant the same
   copy sent instead is first delivered ([infinity] when it never is),
   with the same stats, the same RNG draws after it, and no delivery. *)
let test_post_matches_send () =
  let copies = 60 in
  let run ~post =
    let sim = Sim.create () in
    let rng = Rng.create ~seed:5 in
    let net = Netsim.create sim rng Netsim.default_config ~endpoints:3 in
    Netsim.Fault.drop_fraction net ~p:0.2;
    Netsim.Fault.duplicate net ~p:0.5;
    let first = Array.make copies infinity in
    let delivered = ref 0 in
    Netsim.register net ~id:2 (fun ~src:_ m ->
        incr delivered;
        match m.Message.payload with
        | Message.Client_reply { seq; _ } ->
            first.(seq) <- Float.min first.(seq) (Sim.now sim)
        | _ -> ());
    for seq = 0 to copies - 1 do
      let m =
        Message.make ~sender:(seq mod 2) ~view:0
          (Message.Client_reply { client = 0; seq })
      in
      let earliest = float_of_int seq *. 1e-4 in
      if post then
        first.(seq) <-
          Netsim.post net ~earliest ~src:(seq mod 2) ~dst:2 ~size:200 m
      else Netsim.send net ~earliest ~src:(seq mod 2) ~dst:2 ~size:200 m
    done;
    Sim.run sim;
    (first, !delivered, Netsim.stats net, Rng.next rng)
  in
  let sent, sent_delivered, sent_stats, sent_next = run ~post:false in
  let posted, posted_delivered, posted_stats, posted_next = run ~post:true in
  Alcotest.(check bool) "some copies lost" true
    (Array.exists (fun a -> not (Float.is_finite a)) sent);
  Alcotest.(check bool) "duplicates delivered" true (sent_delivered > posted_stats.Netsim.messages);
  Alcotest.(check (array (float 0.))) "arrival = first delivery" sent posted;
  Alcotest.(check bool) "same stats" true (sent_stats = posted_stats);
  Alcotest.(check int64) "same RNG draws" sent_next posted_next;
  Alcotest.(check int) "posted copies are not delivered" 0 posted_delivered

(* ---------- broadcast ---------- *)

let crisp_config =
  { Netsim.latency = 0.04; jitter = 0.; bandwidth_bps = infinity }

(* Send one message from endpoint 0 to [dsts], once as per-destination
   [Netsim.send]s and once as one [Netsim.broadcast], and return each
   run's delivery sequence [(dst, src, time)] and stats. *)
let broadcast_deliveries ?(config = crisp_config) ?(endpoints = 8)
    ?(prep = fun _ -> ()) ~dsts () =
  let run emit =
    let sim = Sim.create () in
    let net = Netsim.create sim (Rng.create ~seed:11) config ~endpoints in
    let log = ref [] in
    for id = 0 to endpoints - 1 do
      Netsim.register net ~id (fun ~src _ -> log := (id, src, Sim.now sim) :: !log)
    done;
    prep net;
    emit net (noop_msg 0);
    Sim.run sim;
    (List.rev !log, Netsim.stats net)
  in
  ( run (fun net msg ->
        Array.iter (fun dst -> Netsim.send net ~src:0 ~dst ~size:100 msg) dsts),
    run (fun net msg -> Netsim.broadcast net ~src:0 ~dsts ~size:100 msg) )

let test_broadcast_matches_sends () =
  let dsts = [| 3; 1; 5; 2 |] in
  let (sends_log, sends_stats), (bcast_log, bcast_stats) = broadcast_deliveries ~dsts () in
  Alcotest.(check int) "four deliveries" 4 (List.length bcast_log);
  Alcotest.(check bool) "same delivery sequence" true (sends_log = bcast_log);
  Alcotest.(check bool) "same stats" true (sends_stats = bcast_stats);
  (* with zero jitter, simultaneous arrivals deliver in dsts order *)
  Alcotest.(check (list int)) "dsts order on simultaneous arrival"
    [ 3; 1; 5; 2 ]
    (List.map (fun (d, _, _) -> d) bcast_log)

let test_broadcast_self_delivery () =
  (* src appearing in its own dsts: the self copy is delivered with zero
     delay (same instant, before any network arrival), both ways. *)
  let dsts = [| 1; 0; 2 |] in
  let (sends_log, _), (bcast_log, _) = broadcast_deliveries ~dsts () in
  Alcotest.(check bool) "same with self in dsts" true (sends_log = bcast_log);
  (match bcast_log with
  | (0, 0, t) :: rest ->
      Alcotest.(check (float 1e-9)) "self delivery immediate" 0. t;
      Alcotest.(check (list int)) "network copies follow" [ 1; 2 ]
        (List.map (fun (d, _, _) -> d) rest)
  | _ -> Alcotest.fail "self delivery must come first")

let test_broadcast_duplicates () =
  (* A duplicating network exercises the off-trace duplicate scheduling:
     delivery times and stats must still match per-destination sends, and
     stats count logical sends, not duplicates. *)
  let prep net = Netsim.Fault.duplicate net ~p:0.99 in
  let dsts = [| 1; 2; 3 |] in
  let (sends_log, sends_stats), (bcast_log, bcast_stats) =
    broadcast_deliveries ~prep ~dsts ()
  in
  Alcotest.(check bool) "duplicates delivered" true (List.length bcast_log > 3);
  Alcotest.(check bool) "same deliveries under duplication" true
    (sends_log = bcast_log);
  Alcotest.(check bool) "same stats" true (sends_stats = bcast_stats);
  Alcotest.(check int) "stats count logical sends, not duplicates" 3
    bcast_stats.Netsim.messages

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~count:50 ~name:"sim events always run in time order"
      (list_of_size Gen.(1 -- 50) (float_range 0. 10.))
      (fun delays ->
        let sim = Sim.create () in
        let last = ref neg_infinity in
        let ok = ref true in
        List.iter
          (fun d ->
            Sim.schedule_in sim ~delay:d (fun () ->
                if Sim.now sim < !last then ok := false;
                last := Sim.now sim))
          delays;
        Sim.run sim;
        !ok);
    Test.make ~count:50 ~name:"nic serialization is work-conserving"
      (list_of_size Gen.(1 -- 20) (int_range 1 10_000))
      (fun sizes ->
        (* With latency 0, total delivery time = total bytes / bandwidth. *)
        let config =
          { Netsim.latency = 0.; jitter = 0.; bandwidth_bps = 1e6 }
        in
        let sim = Sim.create () in
        let net = Netsim.create sim (Rng.create ~seed:3) config ~endpoints:2 in
        let last = ref 0. in
        Netsim.register net ~id:1 (fun ~src:_ _ -> last := Sim.now sim);
        List.iter (fun s -> Netsim.send net ~src:0 ~dst:1 ~size:s (noop_msg 0)) sizes;
        Sim.run sim;
        let expect = float_of_int (8 * List.fold_left ( + ) 0 sizes) /. 1e6 in
        Float.abs (!last -. expect) < 1e-6);
    Test.make ~count:300 ~name:"Netsim.create rejects exactly the invalid configs"
      (make
         ~print:(fun (latency, jitter, bandwidth_bps) ->
           Printf.sprintf "latency=%g jitter=%g bandwidth_bps=%g" latency jitter
             bandwidth_bps)
         Gen.(triple edge_float edge_float edge_float))
      (fun (latency, jitter, bandwidth_bps) ->
        accepts_iff
          (finite_nonneg latency && finite_nonneg jitter && bandwidth_bps > 0.)
          (fun () -> make_net ~config:{ Netsim.latency; jitter; bandwidth_bps } ()));
  ]

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng split independence", `Quick, test_rng_split_independence);
    ("rng ranges", `Quick, test_rng_ranges);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("event queue ordering", `Quick, test_event_queue_ordering);
    ("event queue stress", `Quick, test_event_queue_stress);
    ("sim run order", `Quick, test_sim_run_order);
    ("sim run until", `Quick, test_sim_run_until);
    ("sim clamps past events", `Quick, test_sim_past_events_clamp);
    ("net delivery latency", `Quick, test_net_delivery_latency);
    ("net bandwidth fifo", `Quick, test_net_bandwidth_fifo);
    ("net self send free", `Quick, test_net_self_send_is_free);
    ("net earliest (cpu modelling)", `Quick, test_net_earliest);
    ("net crash", `Quick, test_net_crash);
    ("net link filter", `Quick, test_net_link_filter);
    ("Netsim.create rejects invalid config, naming the field", `Quick,
     test_net_rejects_config);
    ("net stats & metering", `Quick, test_net_stats);
    ("net stats is a snapshot", `Quick, test_net_stats_snapshot);
    ("post is send without the delivery", `Quick, test_post_matches_send);
    ("net fault setters reject bad values", `Quick, test_net_fault_values);
    ("broadcast fan-out matches per-dst sends", `Quick, test_broadcast_matches_sends);
    ("broadcast zero-delay self delivery", `Quick, test_broadcast_self_delivery);
    ("broadcast under duplication", `Quick, test_broadcast_duplicates);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      (queue_model_test :: queue_stable_sort_test :: qcheck_cases)
  @ [
      ("event queue releases popped values", `Quick,
        test_event_queue_releases_popped);
      ("event queue high-water mark", `Quick, test_event_queue_high_water);
      ("event queue releases values from reused slots", `Quick,
        test_event_queue_refill_releases);
      ("event queue push and pop allocate nothing once grown", `Quick,
        test_event_queue_no_alloc);
    ]

let () = Alcotest.run "sim" [ ("sim", suite) ]
