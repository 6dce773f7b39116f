(* Waiver coverage: every finding below is waived except the float
   comparison, which a waiver for another rule cannot reach. *)
(* lint: allow poly-compare -- fixture: a waived finding is dropped *)
let f a b = compare a b

let p x = x = 1.0 (* lint: allow float-equality -- fixture: same line *)

(* lint: allow poly-compare -- fixture: covers the tuple, not the float *)
let both x pair = x = 1.0 && pair = (1, 2)
