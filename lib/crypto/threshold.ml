type partial = { signer : int; tag : Sha256.t }
type t = { signers : int list; tag : Sha256.t }

let partial_size_bytes = 64

let share_msg msg = "tshare|" ^ msg

let sign kc ~signer msg =
  { signer; tag = Keychain.mac kc signer (share_msg msg) }

let verify_partial kc msg p =
  p.signer >= 0
  && p.signer < Keychain.n kc
  && Sha256.equal p.tag (Keychain.mac kc p.signer (share_msg msg))

(* Decimal digits of a non-negative [i], without an intermediate string. *)
let rec add_id b i =
  if i >= 10 then add_id b (i / 10);
  Buffer.add_char b (Char.chr (Char.code '0' + (i mod 10)))

(* The tag input is "tsig|<ids joined by ','>|<msg>"; [signers] are in
   range, so non-negative. *)
let combined_tag kc msg signers =
  let b = Buffer.create (String.length msg + 8 + (4 * List.length signers)) in
  Buffer.add_string b "tsig|";
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char b ',';
      add_id b id)
    signers;
  Buffer.add_char b '|';
  Buffer.add_string b msg;
  Keychain.mac kc Keychain.system (Buffer.contents b)

let combine kc ~threshold msg partials =
  let valid = List.filter (verify_partial kc msg) partials in
  let signers = List.sort_uniq Int.compare (List.map (fun p -> p.signer) valid) in
  if List.length signers < threshold then
    Error
      (Printf.sprintf "combine: %d distinct valid shares, need %d"
         (List.length signers) threshold)
  else Ok { signers; tag = combined_tag kc msg signers }

let verify kc ~threshold msg s =
  let n = Keychain.n kc in
  (* One pass: strictly ascending from 0 (so duplicate-free and
     non-negative), below [n], and at least [threshold] of them. *)
  let rec well_formed prev count = function
    | [] -> count >= threshold
    | i :: rest -> i > prev && i < n && well_formed i (count + 1) rest
  in
  Keychain.cert_checked kc s.tag ~threshold s.signers msg
  || well_formed (-1) 0 s.signers
     && Sha256.equal s.tag (combined_tag kc msg s.signers)
     && (Keychain.note_cert kc s.tag ~threshold s.signers msg;
         true)

let equal a b =
  List.equal Int.equal a.signers b.signers && Sha256.equal a.tag b.tag

