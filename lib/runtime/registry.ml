module C = Marlin_core.Consensus_intf
module Marlin_impl = Marlin_core.Marlin_impl
module Hotstuff_impl = Marlin_core.Hotstuff_impl

module Marlin = Marlin_impl.Make (struct
  let name = "marlin"
  let chained = false
end)

module Chained_marlin = Marlin_impl.Make (struct
  let name = "chained-marlin"
  let chained = true
end)

module Hotstuff = Hotstuff_impl.Make (struct
  let name = "hotstuff"
  let chained = false
end)

module Chained_hotstuff = Hotstuff_impl.Make (struct
  let name = "chained-hotstuff"
  let chained = true
end)

(* Sorted by name. *)
let table =
  List.map
    (fun ((module P : C.PROTOCOL) as p) -> (P.name, p))
    [
      (module Chained_hotstuff : C.PROTOCOL);
      (module Chained_marlin);
      (module Hotstuff);
      (module Marlin);
      (module Marlin_core.Pbft);
      (module Marlin_core.Twophase_insecure);
    ]

let find_exn name =
  match List.assoc_opt name table with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Registry: unknown protocol %S (known: %s)" name
           (String.concat ", " (List.map fst table)))

let all () = table
