(* Seeded violations for float-equality: exact comparison against a float
   literal. Tolerances and orderings below are clean. *)
let p x = x = 1.0
let q x = 0.5 <> x
let r x = x == 2.0
let near x = Float.abs (x -. 1.0) < 1e-9
let below x = x < 1.0
