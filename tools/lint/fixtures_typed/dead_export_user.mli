(* Empty: the fixture is only ever linted. *)
