(* lint: allow-file float-equality -- fixture: a table of exact constants *)
let p x = x = 1.0
let q x = x = 2.0
