(* The other compilation unit that keeps Bad_dead_export's exports alive;
   test_lint also lints it as if it lived under test/ and examples/. *)
let total = Bad_dead_export.used_elsewhere Bad_dead_export.Nested.used_nested
