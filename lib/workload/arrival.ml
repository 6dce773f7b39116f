module Rng = Marlin_sim.Rng

type t = { rate : float }

let check_pos what x =
  if not (Float.is_finite x && x > 0.) then
    invalid_arg (Printf.sprintf "Arrival: %s must be finite and > 0" what)

let poisson ~rate =
  check_pos "rate" rate;
  { rate }

let mean_rate t = t.rate

let scale t ~by =
  check_pos "scale factor" by;
  { rate = t.rate *. by }

let with_mean_rate t ~rate =
  check_pos "rate" rate;
  scale t ~by:(rate /. mean_rate t)

let label t = Printf.sprintf "poisson(%g/s)" t.rate

module Sampler = struct
  type arrival = t
  type t = { rate : float; rng : Rng.t }

  let create (arrival : arrival) ~rng = { rate = arrival.rate; rng }
  let next t ~now = now +. Rng.exponential t.rng ~mean:(1. /. t.rate)
end
