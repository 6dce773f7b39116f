open Marlin_crypto

type t = { cost : Cost_model.t; mutable pending : float; mutable ops : int }

let create cost = { cost; pending = 0.; ops = 0 }

let charge_op t seconds =
  t.ops <- t.ops + 1;
  t.pending <- t.pending +. seconds

let charge_partial_sign t = charge_op t (Cost_model.partial_sign_cost t.cost)
let charge_partial_verify t = charge_op t (Cost_model.partial_verify_cost t.cost)
let charge_combine t ~shares = charge_op t (Cost_model.combine_cost t.cost ~shares)

let charge_combined_verify t ~shares =
  charge_op t (Cost_model.combined_verify_cost t.cost ~shares)

let take t =
  let p = t.pending in
  t.pending <- 0.;
  p

let op_count t = t.ops
