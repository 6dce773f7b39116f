(* SHA-256 per FIPS 180-4. Words are native ints holding 32-bit values:
   every word stored in the state or the schedule is masked to 32 bits, so
   the logical right shifts in the sigma functions see clean high bits.
   Intermediate sums and left shifts may carry bits above bit 31; they
   never reach a stored word unmasked, and the low 32 bits of a sum depend
   only on the low 32 bits of its operands. Nothing in the compression
   loop allocates. Requires 63-bit ints (a 64-bit platform). *)

type t = string (* 32 raw bytes *)

let digest_size = 32

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask = 0xffffffff

module Ctx = struct
  type ctx = {
    h : int array; (* 8 working hash values *)
    buf : Bytes.t; (* 64-byte block buffer *)
    mutable buf_len : int; (* bytes currently in [buf] *)
    mutable total : int; (* total message bytes fed *)
    w : int array; (* 64-entry message schedule, reused *)
  }

  (* The 8 chaining words followed by the byte count. *)
  type midstate = int array

  let of_state h total =
    { h; buf = Bytes.create 64; buf_len = 0; total; w = Array.make 64 0 }

  let create () =
    of_state
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
      0

  let copy c =
    { c with h = Array.copy c.h; buf = Bytes.copy c.buf; w = Array.make 64 0 }

  let midstate c =
    if c.buf_len <> 0 then
      invalid_arg "Sha256.Ctx.midstate: input not a whole number of blocks";
    Array.append c.h [| c.total |]

  let resume m = of_state (Array.sub m 0 8) m.(8)

  (* [rotr x n] for a clean 32-bit [x]; bits above 31 of the result are
     garbage, so callers mask before storing. *)
  let[@inline] rotr x n = (x lsr n) lor (x lsl (32 - n))

  (* Process one 64-byte block starting at [off] in [b]. *)
  let compress ctx b off =
    let w = ctx.w in
    for i = 0 to 15 do
      w.(i) <- Int32.to_int (Bytes.get_int32_be b (off + (i * 4))) land mask
    done;
    for i = 16 to 63 do
      let x = w.(i - 15) and y = w.(i - 2) in
      let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
      let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let h = ctx.h in
    let a = ref h.(0)
    and bb = ref h.(1)
    and c = ref h.(2)
    and d = ref h.(3)
    and e = ref h.(4)
    and f = ref h.(5)
    and g = ref h.(6)
    and hh = ref h.(7) in
    for i = 0 to 63 do
      let e' = !e and a' = !a in
      let s1 = rotr e' 6 lxor rotr e' 11 lxor rotr e' 25 in
      let ch = (e' land !f) lxor (lnot e' land !g) in
      let temp1 = !hh + s1 + ch + k.(i) + w.(i) in
      let s0 = rotr a' 2 lxor rotr a' 13 lxor rotr a' 22 in
      let maj = (a' land !bb) lxor (a' land !c) lxor (!bb land !c) in
      hh := !g;
      g := !f;
      f := e';
      e := (!d + temp1) land mask;
      d := !c;
      c := !bb;
      bb := a';
      a := (temp1 + s0 + maj) land mask
    done;
    h.(0) <- (h.(0) + !a) land mask;
    h.(1) <- (h.(1) + !bb) land mask;
    h.(2) <- (h.(2) + !c) land mask;
    h.(3) <- (h.(3) + !d) land mask;
    h.(4) <- (h.(4) + !e) land mask;
    h.(5) <- (h.(5) + !f) land mask;
    h.(6) <- (h.(6) + !g) land mask;
    h.(7) <- (h.(7) + !hh) land mask

  let feed_sub ctx (src : bytes) pos len =
    ctx.total <- ctx.total + len;
    let pos = ref pos and len = ref len in
    (* Fill a partially filled buffer first. *)
    if ctx.buf_len > 0 then begin
      let need = 64 - ctx.buf_len in
      let take = min need !len in
      Bytes.blit src !pos ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := !pos + take;
      len := !len - take;
      if ctx.buf_len = 64 then begin
        compress ctx ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    (* Whole blocks straight from the source. *)
    while !len >= 64 do
      compress ctx src !pos;
      pos := !pos + 64;
      len := !len - 64
    done;
    if !len > 0 then begin
      Bytes.blit src !pos ctx.buf 0 !len;
      ctx.buf_len <- !len
    end

  let feed_bytes ctx b = feed_sub ctx b 0 (Bytes.length b)

  let feed_string ctx s =
    feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

  (* Padding, written into [buf]: 0x80, zeros, then the 64-bit big-endian
     bit length in the last 8 bytes of the final block. *)
  let finalize ctx =
    let buf = ctx.buf and len = ctx.buf_len in
    Bytes.set buf len '\x80';
    if len >= 56 then begin
      Bytes.fill buf (len + 1) (63 - len) '\000';
      compress ctx buf 0;
      Bytes.fill buf 0 56 '\000'
    end
    else Bytes.fill buf (len + 1) (55 - len) '\000';
    Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
    compress ctx buf 0;
    ctx.buf_len <- 0;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.h.(i))
    done;
    Bytes.unsafe_to_string out
end

let string s =
  let ctx = Ctx.create () in
  Ctx.feed_string ctx s;
  Ctx.finalize ctx

let bytes b =
  let ctx = Ctx.create () in
  Ctx.feed_bytes ctx b;
  Ctx.finalize ctx

let to_raw d = d

let of_raw s =
  if String.length s <> 32 then invalid_arg "Sha256.of_raw: need 32 bytes";
  s

let hex_chars = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create 64 in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) hex_chars.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_chars.[v land 0xF])
    d;
  Bytes.unsafe_to_string out

let of_hex s =
  if String.length s <> 64 then invalid_arg "Sha256.of_hex: need 64 chars";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Sha256.of_hex: bad character"
  in
  String.init 32 (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

let equal = String.equal
let compare = String.compare
(* lint: allow poly-compare — a digest is a flat string; this {e is} the keyed hash *)
let hash d = Hashtbl.hash d
let pp fmt d = Format.pp_print_string fmt (String.sub (to_hex d) 0 8)
