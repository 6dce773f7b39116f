module Enc = struct
  type t = Buffer.t

  let create ?(size = 256) () = Buffer.create size
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  let u16 b v =
    u8 b v;
    u8 b (v lsr 8)

  let u32 b v =
    u16 b v;
    u16 b (v lsr 16)

  let u64 b v =
    for i = 0 to 7 do
      u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done

  let rec varint b v =
    if v < 0 then invalid_arg "Wire.Enc.varint: negative"
    else if v < 0x80 then u8 b v
    else begin
      u8 b (0x80 lor (v land 0x7F));
      varint b (v lsr 7)
    end

  let bool b v = u8 b (if v then 1 else 0)

  let bytes b s =
    varint b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s
  let contents b = Buffer.contents b
  let length b = Buffer.length b
end

module Dec = struct
  type t = { src : string; mutable pos : int }

  exception Decode_error of string

  let of_string src = { src; pos = 0 }

  let need d n =
    if d.pos + n > String.length d.src then
      raise (Decode_error (Printf.sprintf "need %d bytes at offset %d, have %d"
                             n d.pos (String.length d.src - d.pos)))

  let u8 d =
    need d 1;
    let v = Char.code d.src.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u16 d =
    let lo = u8 d in
    let hi = u8 d in
    lo lor (hi lsl 8)

  let u32 d =
    let lo = u16 d in
    let hi = u16 d in
    lo lor (hi lsl 16)

  let u64 d =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 d)) (8 * i))
    done;
    !v

  let varint d =
    let rec go shift acc =
      let b = u8 d in
      (* A ninth byte holds bits 56..61: a continuation or bit 62 would
         overflow the int or make it negative. *)
      if shift = 56 && b > 0x3F then raise (Decode_error "varint overflows int");
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let bool d =
    match u8 d with
    | 0 -> false
    | 1 -> true
    | v -> raise (Decode_error (Printf.sprintf "bad bool byte %d" v))

  let raw d n =
    need d n;
    let s = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    s

  let bytes d =
    let n = varint d in
    raw d n

  let at_end d = d.pos = String.length d.src
  let remaining d = String.length d.src - d.pos
end

let varint_size v =
  if v < 0 then invalid_arg "Wire.varint_size: negative"
  else
    let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
    go v 1
