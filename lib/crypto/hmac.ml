let block_size = 64

(* A prepared key: the SHA-256 chaining states left after absorbing the
   ipad and opad blocks, so a MAC compresses only the message and the
   inner digest. They are computed on the first MAC rather than in
   [prepare], which keeps [Keychain.create] (it prepares every replica's
   key) as cheap as a set-up step should be. *)
type key = (Sha256.Ctx.midstate * Sha256.Ctx.midstate) Lazy.t

let prepare raw =
  let raw =
    if String.length raw > block_size then Sha256.to_raw (Sha256.string raw)
    else raw
  in
  lazy
    (let absorb c =
       let ctx = Sha256.Ctx.create () in
       Sha256.Ctx.feed_string ctx
         (String.init block_size (fun i ->
              let k = if i < String.length raw then Char.code raw.[i] else 0 in
              Char.chr (k lxor c)));
       Sha256.Ctx.midstate ctx
     in
     (absorb 0x36, absorb 0x5c))

let mac_prepared ~key msg =
  let inner, outer = Lazy.force key in
  let ctx = Sha256.Ctx.resume inner in
  Sha256.Ctx.feed_string ctx msg;
  let inner_digest = Sha256.Ctx.finalize ctx in
  let ctx = Sha256.Ctx.resume outer in
  Sha256.Ctx.feed_string ctx (Sha256.to_raw inner_digest);
  Sha256.Ctx.finalize ctx

let mac ~key msg = mac_prepared ~key:(prepare key) msg
