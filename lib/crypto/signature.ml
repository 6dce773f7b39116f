type t = { signer : int; tag : Sha256.t }

let size_bytes = 64

let sign kc ~signer msg = { signer; tag = Keychain.mac kc signer msg }

let verify kc msg s =
  s.signer >= 0
  && s.signer < Keychain.n kc
  && Sha256.equal s.tag (Keychain.mac kc s.signer msg)

let equal a b = a.signer = b.signer && Sha256.equal a.tag b.tag
let pp fmt s = Format.fprintf fmt "sig[%d:%a]" s.signer Sha256.pp s.tag
