type t = { mutable now : float; queue : (unit -> unit) Event_queue.t }

let create () = { now = 0.; queue = Event_queue.create () }
let now t = t.now

let schedule_at t ~time thunk =
  Event_queue.push t.queue ~time:(Float.max time t.now) thunk

let schedule_in t ~delay thunk = schedule_at t ~time:(t.now +. delay) thunk

(* Run the earliest event when it is due by [limit]. [next_time] is read
   once per event (it returns a boxed float), and the clock field is only
   written when it advances. *)
let fire t ~limit =
  (not (Event_queue.is_empty t.queue))
  &&
  let time = Event_queue.next_time t.queue in
  time <= limit
  &&
  let thunk = Event_queue.pop_min t.queue in
  if time > t.now then t.now <- time;
  thunk ();
  true

let step t = fire t ~limit:infinity

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      while fire t ~limit do () done;
      t.now <- Float.max t.now limit

let pending t = Event_queue.length t.queue
let peak_pending t = Event_queue.max_length t.queue
