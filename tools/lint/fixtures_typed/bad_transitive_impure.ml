(* Seeded violations for the typed transitive-impurity rule: [jitter],
   [now] and [draw] reference an impurity root directly (ambient time,
   the wall clock, stdlib Random with a passed state); [on_view_timeout]
   is impure purely by calling [jitter], which takes the interprocedural
   effect inference to detect. *)
let jitter () = Sys.time ()

let on_view_timeout backoff = backoff +. jitter ()

let now () = Unix.gettimeofday ()

let draw st = Random.State.int st 10
