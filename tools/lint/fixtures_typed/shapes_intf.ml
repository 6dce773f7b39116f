(* An *_intf module is interface-only by convention: missing-mli exempts it. *)
module type S = sig end
