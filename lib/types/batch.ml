type t = {
  ops : Operation.t array;
  mutable cached_digest : Marlin_crypto.Sha256.t option;
  mutable cached_wire_size : int; (* -1 until computed; ops are immutable *)
}

let empty = { ops = [||]; cached_digest = None; cached_wire_size = -1 }

let of_list ops =
  { ops = Array.of_list ops; cached_digest = None; cached_wire_size = -1 }
let to_list b = Array.to_list b.ops
let length b = Array.length b.ops
let is_empty b = Array.length b.ops = 0

let encode enc b =
  Wire.Enc.varint enc (Array.length b.ops);
  Array.iter (Operation.encode enc) b.ops

let decode dec =
  let n = Wire.Dec.varint dec in
  (* An op takes at least 3 bytes (client, seq, body length), so a count
     the input cannot hold is rejected before the array is allocated. *)
  if n > Wire.Dec.remaining dec / 3 then
    raise
      (Wire.Dec.Decode_error
         (Printf.sprintf "batch of %d ops in %d bytes" n (Wire.Dec.remaining dec)));
  let ops = Array.init n (fun _ -> Operation.decode dec) in
  { ops; cached_digest = None; cached_wire_size = -1 }

let wire_size b =
  if b.cached_wire_size >= 0 then b.cached_wire_size
  else begin
    let size =
      Array.fold_left
        (fun acc op -> acc + Operation.wire_size op)
        (Wire.varint_size (Array.length b.ops))
        b.ops
    in
    b.cached_wire_size <- size;
    size
  end

let digest b =
  match b.cached_digest with
  | Some d -> d
  | None ->
      let enc = Wire.Enc.create ~size:(wire_size b + 8) () in
      encode enc b;
      let d = Marlin_crypto.Sha256.string (Wire.Enc.contents enc) in
      b.cached_digest <- Some d;
      d

let equal a b =
  Array.length a.ops = Array.length b.ops
  && Array.for_all2 Operation.equal a.ops b.ops

let pp fmt b = Format.fprintf fmt "batch(%d ops)" (Array.length b.ops)
