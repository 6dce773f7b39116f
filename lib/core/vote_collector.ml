open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module Threshold = Marlin_crypto.Threshold

type key = { phase : Qc.phase; view : int; digest : string }

type entry = {
  block : Qc.block_ref;
  mutable partials : Threshold.partial list;
  mutable signers : int list;
  mutable complete : bool;
}

type t = { auth : Auth.t; entries : (key, entry) Hashtbl.t }

let create auth = { auth; entries = Hashtbl.create 32 }

type outcome = Quorum of Qc.t | Counted of int | Rejected of string

let key ~phase ~view ~digest = { phase; view; digest = Sha256.to_raw digest }

let add t ~phase ~view ~block partial =
  let k = key ~phase ~view ~digest:block.Qc.digest in
  let entry =
    match Hashtbl.find_opt t.entries k with
    | Some e -> e
    | None ->
        let e = { block; partials = []; signers = []; complete = false } in
        Hashtbl.replace t.entries k e;
        e
  in
  if entry.complete then Rejected "quorum already formed"
  else if List.mem partial.Threshold.signer entry.signers then
    Rejected "duplicate signer"
  else if not (Auth.verify_vote t.auth ~phase ~view block partial) then
    Rejected "invalid partial signature"
  else begin
    entry.partials <- partial :: entry.partials;
    entry.signers <- partial.Threshold.signer :: entry.signers;
    if List.length entry.signers >= Auth.quorum t.auth then begin
      entry.complete <- true;
      match Auth.combine t.auth ~phase ~view block entry.partials with
      | Ok qc -> Quorum qc
      | Error e -> Rejected ("combine failed: " ^ e)
    end
    else Counted (List.length entry.signers)
  end

let count t ~phase ~view ~digest =
  match Hashtbl.find_opt t.entries (key ~phase ~view ~digest) with
  | Some e -> List.length e.signers
  | None -> 0

let gc_below_view t view =
  Hashtbl.filter_map_inplace
    (fun k e -> if k.view < view then None else Some e)
    t.entries
