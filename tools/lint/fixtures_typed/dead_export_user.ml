(* The other compilation unit that keeps Bad_dead_export's exports alive;
   test_lint also lints it as if it lived under test/ and examples/. *)
let total = Bad_dead_export.used_elsewhere Bad_dead_export.Nested.used_nested

module M = Bad_dead_export.Make (struct let x = 1 end)

let made =
  let module L = Bad_dead_export.Make (struct let x = 2 end) in
  M.made_used + L.made_local

include Bad_dead_export.Drive (struct let x = 3 end)
