(* Exports for dead-export: [unused] and [Nested.unused_nested] have no
   caller outside this unit; every other value is clean. *)

val unused : int -> int
val used_elsewhere : int -> int

module Nested : sig
  val unused_nested : int
  val used_nested : int
end

module type Shape = sig
  val from_include : int
end

include Shape

(* lint: allow dead-export -- fixture: a waived export is dropped *)
val waived : int
