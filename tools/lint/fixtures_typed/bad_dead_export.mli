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

(* A functor's written result signature is walked: [made_unused] has no
   caller, [made_used] is called through a module and [made_local]
   through a local module. *)
module Make (X : sig val x : int end) : sig
  val made_used : int
  val made_local : int
  val made_unused : int
end

(* [include Drive (...)] elsewhere re-exports [driven]: a reference. *)
module Drive (X : sig val x : int end) : sig
  val driven : int
end
