(* Shared pieces of the hostile-config tests: edge-value generators and
   the two checks every constructor is held to. *)

(* Both valid and invalid values: zero, negatives, NaN, infinities. *)
let edge_float =
  QCheck.Gen.oneofl [ Float.nan; infinity; neg_infinity; -1.; 0.; 1e-3; 1.; 500. ]

let edge_int =
  QCheck.Gen.oneof
    [ QCheck.Gen.int_range (-2) 9; QCheck.Gen.oneofl [ min_int; max_int ] ]

let valid_pos x = Float.is_finite x && x > 0.
let finite_nonneg x = Float.is_finite x && x >= 0.

(* [f ()] raises Invalid_argument exactly when [valid] is false. *)
let accepts_iff valid f =
  match f () with
  | _ -> valid
  | exception Invalid_argument _ -> not valid

(* [f ()] raises Invalid_argument with a message that names [field]. *)
let rejected_naming field f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
      let n = String.length field in
      let rec mentions i =
        i + n <= String.length msg && (String.sub msg i n = field || mentions (i + 1))
      in
      mentions 0
