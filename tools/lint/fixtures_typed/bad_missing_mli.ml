(* Seeded violation for missing-mli: no interface file on purpose. *)
let id x = x
