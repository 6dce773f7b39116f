(* Only this unit uses [unused]: a caller in the defining unit does not
   keep an export alive. *)
let unused x = x + 1
let used_elsewhere x = unused x

module Nested = struct
  let unused_nested = 1
  let used_nested = 2
end

module type Shape = sig
  val from_include : int
end

let from_include = 3
let waived = 4
