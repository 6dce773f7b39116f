(* Seeded violations for toplevel-state: process-global mutable state.
   Allocating inside create () is clean. *)
let cache : (int, int) Hashtbl.t = Hashtbl.create 16
let hits = ref 0
let create () : (int, int) Hashtbl.t = Hashtbl.create 16
