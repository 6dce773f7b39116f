type t = { client : int; seq : int; body : string }

let make ~client ~seq ~body = { client; seq; body }
let key op = (op.client, op.seq)

let encode enc op =
  Wire.Enc.varint enc op.client;
  Wire.Enc.varint enc op.seq;
  Wire.Enc.bytes enc op.body

let decode dec =
  let client = Wire.Dec.varint dec in
  let seq = Wire.Dec.varint dec in
  let body = Wire.Dec.bytes dec in
  { client; seq; body }

let wire_size op =
  Wire.varint_size op.client
  + Wire.varint_size op.seq
  + Wire.varint_size (String.length op.body)
  + String.length op.body

let equal a b = a.client = b.client && a.seq = b.seq && String.equal a.body b.body
