(* Seeded violations for hashtbl-order: folds and iters that build a list
   in hash-bucket order. The sorted and order-free folds below are clean. *)
open Marlin_types

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = Hashtbl.hash k
end)

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []
let keys_into t acc =
  Hashtbl.iter (fun k _ -> acc := k :: !acc) t
let pairs t = Pair_tbl.fold (fun a b _ acc -> (a, b) :: acc) t []
let tbl_keys t = Tbl.fold (fun k _ acc -> k :: acc) t []

let sorted t =
  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])
let piped t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort Int.compare
let sort_by_key l = List.sort Int.compare l
let helper t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> sort_by_key
let count t = Hashtbl.fold (fun _ _ acc -> acc + 1) t 0
