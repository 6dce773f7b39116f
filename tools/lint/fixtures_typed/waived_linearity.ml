(* lint: allow-file linearity -- fixture: waiver-interaction coverage
   for the lint; this quadratic echo is deliberate *)

module C = Marlin_core.Consensus_intf
open Marlin_types

let echo_all (peers : int array) (m : Message.t) =
  Array.iter (fun _peer -> ignore (C.Broadcast m)) peers
