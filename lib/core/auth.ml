open Marlin_types
module Sha256 = Marlin_crypto.Sha256

type t = {
  kc : Marlin_crypto.Keychain.t;
  meter : Cpu_meter.t;
  quorum : int;
  verified : (string, Qc.t) Hashtbl.t; (* checked QCs, by tag *)
}

let create ~keychain ~meter ~quorum =
  { kc = keychain; meter; quorum; verified = Hashtbl.create 64 }

let quorum t = t.quorum
let replicas t = Marlin_crypto.Keychain.n t.kc
let meter t = t.meter

let sign_vote t ~signer ~phase ~view block =
  Cpu_meter.charge_partial_sign t.meter;
  Qc.sign_vote t.kc ~signer ~phase ~view block

let verify_vote t ballot partial =
  Cpu_meter.charge_partial_verify t.meter;
  Qc.verify_ballot t.kc ballot partial

let combine t ballot partials =
  Cpu_meter.charge_combine t.meter ~shares:(List.length partials);
  Qc.combine_ballot t.kc ~threshold:t.quorum ballot partials

let aggregate t ballot partials =
  Cpu_meter.charge_combine t.meter ~shares:(List.length partials);
  Qc.aggregate_ballot t.kc ~threshold:t.quorum ballot partials

let verify_qc t qc =
  if Qc.is_genesis qc then true
  else
    let { Marlin_crypto.Threshold.tag; signers } = qc.Qc.tsig in
    let key = Sha256.to_raw tag in
    match Hashtbl.find_opt t.verified key with
    (* the tag alone is not enough: a copy with another block or view
       under a checked tag must be checked in full (and fail) *)
    | Some seen when Qc.equal seen qc -> true
    | _ ->
        Cpu_meter.charge_combined_verify t.meter
          ~shares:(Marlin_crypto.Keychain.cert_size t.kc tag signers);
        let ok = Qc.verify t.kc ~threshold:t.quorum qc in
        if ok then Hashtbl.replace t.verified key qc;
        ok
