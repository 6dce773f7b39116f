type t = { base : float; max : float; mutable failures : int }

let create ~base ~max = { base; max; failures = 0 }

(* Iterative doubling that stops the moment the cap is reached: the result
   is exactly [t.max] whenever base * 2^failures would meet or exceed it —
   no [2. ** k] rounding overshoot, no overflow however large [failures]
   grows during a long outage. *)
let current_timeout t =
  let rec go v k =
    if v >= t.max then t.max else if k <= 0 then v else go (v *. 2.) (k - 1)
  in
  go t.base t.failures

let note_progress t = t.failures <- 0
let note_view_change t = t.failures <- t.failures + 1
let consecutive_failures t = t.failures
