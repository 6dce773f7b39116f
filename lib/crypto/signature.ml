type t = { signer : int; tag : Sha256.t }

let sign kc ~signer msg = { signer; tag = Keychain.mac kc signer msg }

let verify kc msg s =
  s.signer >= 0
  && s.signer < Keychain.n kc
  && Sha256.equal s.tag (Keychain.mac kc s.signer msg)

