(* MAC results memoised by (key index, exact input). All n replicas of a
   simulated cluster share one keychain, so the n checks of one broadcast
   vote or certificate cost the host one MAC. *)
module Memo = Hashtbl.Make (struct
  type t = int * string

  let equal ((i, s) : t) (j, s') = i = j && String.equal s s'
  let hash ((i, s) : t) = String.seeded_hash i s
end)

(* Combined threshold signatures verified under this keychain, by tag.
   An entry is the exact input that was checked: the threshold, the
   signer list and the message. *)
module Certs = Hashtbl.Make (Sha256)

type cert = { threshold : int; signers : int list; msg : string }

(* Entries either memo holds before it is emptied: a few phases of a
   large cluster's shares and certificates. *)
let memo_capacity = 2048

type t = {
  n : int;
  secrets : string array;
  system_secret : string;
  keys : Hmac.key array; (* prepared once; see Hmac.prepare *)
  system_key : Hmac.key;
  memo : Sha256.t Memo.t;
  certs : cert Certs.t;
}

let system = -1

let create ?(seed = "marlin-cluster") ~n () =
  if n <= 0 then invalid_arg "Keychain.create: n must be positive";
  let derive label =
    Sha256.to_raw (Sha256.string (Printf.sprintf "%s|%s" seed label))
  in
  let secrets = Array.init n (fun i -> derive (Printf.sprintf "replica-%d" i)) in
  let system_secret = derive "system" in
  {
    n;
    secrets;
    system_secret;
    keys = Array.map Hmac.prepare secrets;
    system_key = Hmac.prepare system_secret;
    (* small: Cluster.create makes a keychain per run *)
    memo = Memo.create 16;
    certs = Certs.create 16;
  }

let n kc = kc.n

let secret kc i =
  if i < 0 || i >= kc.n then invalid_arg "Keychain.secret: replica id out of range";
  kc.secrets.(i)

let key kc i =
  if i < 0 || i >= kc.n then invalid_arg "Keychain.key: replica id out of range";
  kc.keys.(i)

let system_key kc = kc.system_key

let mac kc i input =
  let key =
    if i = system then kc.system_key
    else if i >= 0 && i < kc.n then kc.keys.(i)
    else invalid_arg "Keychain.mac: key index out of range"
  in
  let k = (i, input) in
  match Memo.find_opt kc.memo k with
  | Some tag -> tag
  | None ->
      let tag = Hmac.mac_prepared ~key input in
      if Memo.length kc.memo >= memo_capacity then Memo.clear kc.memo;
      Memo.add kc.memo k tag;
      tag

let cert_checked kc tag ~threshold signers msg =
  match Certs.find_opt kc.certs tag with
  | Some c ->
      c.threshold = threshold
      && (c.signers == signers || List.equal Int.equal c.signers signers)
      && String.equal c.msg msg
  | None -> false

let note_cert kc tag ~threshold signers msg =
  if Certs.length kc.certs >= memo_capacity then Certs.clear kc.certs;
  Certs.replace kc.certs tag { threshold; signers; msg }
