(* Seeded violations for poly-compare: polymorphic compare, equality and
   hash at a non-flat type. The clean uses below must not be flagged. *)
type shape = Circle | Square
type point = { x : int; y : int }

let f a b = compare a b
let g a b = Stdlib.compare a b
let h x = Hashtbl.hash x
let p x = x = Some 3
let tuple (a : int * int) b = a = b
let record (a : point) b = a <> b
let sort_any l = List.sort compare l

let by_int a b = Int.compare a b
let m x = match x with Some 3 -> true | _ -> false
let q x = x = 3
let s (a : string) b = a = b || compare a b < 0
let shapes (a : shape) b = a = b
let none x = x = None
let empty (l : int list) = l <> []
