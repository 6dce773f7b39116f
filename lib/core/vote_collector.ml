open Marlin_types
module Threshold = Marlin_crypto.Threshold

(* Entries by block digest. The entries under one digest (one per phase
   and view, and any hostile vote's other reference) form a short list,
   searched by phase, view and the whole block reference. *)
module By_digest = Hashtbl.Make (Marlin_crypto.Sha256)

type state =
  | Collecting of {
      ballot : Qc.ballot;  (* every counted share verified against it *)
      mutable partials : Threshold.partial list;
      mutable count : int;  (* = List.length partials *)
      seen : Bytes.t;  (* byte i is 1 once replica i's share counted *)
    }
  | Formed  (* ballot, shares and bitmap are released with Collecting *)

type entry = {
  phase : Qc.phase;
  view : int;
  block : Qc.block_ref;
  mutable state : state;
}

type t = { auth : Auth.t; entries : entry list By_digest.t }

let create auth = { auth; entries = By_digest.create 32 }

type rejection =
  | Complete
  | Duplicate_signer
  | Invalid_share
  | Combine_failed of string

type outcome = Quorum of Qc.t | Counted of int | Rejected of rejection

let bucket t digest =
  match By_digest.find t.entries digest with
  | entries -> entries
  | exception Not_found -> []

let rec find ~phase ~view block = function
  | [] -> raise_notrace Not_found
  | e :: rest ->
      if Qc.phase_equal e.phase phase && e.view = view
         && Qc.block_ref_equal e.block block
      then e
      else find ~phase ~view block rest

let find_or_add t ~phase ~view block =
  let entries = bucket t block.Qc.digest in
  match find ~phase ~view block entries with
  | e -> e
  | exception Not_found ->
      let seen = Bytes.make (Auth.replicas t.auth) '\000' in
      let ballot = Qc.ballot ~phase ~view block in
      let e =
        {
          phase;
          view;
          block;
          state = Collecting { ballot; partials = []; count = 0; seen };
        }
      in
      By_digest.replace t.entries block.Qc.digest (e :: entries);
      e

(* Each counted share was verified against the entry's ballot, which
   names the whole reference the entry is keyed by, so the quorum is
   aggregated without a second check of any share. *)
let add t ~phase ~view ~block partial =
  let e = find_or_add t ~phase ~view block in
  match e.state with
  | Formed -> Rejected Complete
  | Collecting c ->
      let id = partial.Threshold.signer in
      (* a hostile id is out of range: not a duplicate, and its share
         fails verification below *)
      if id >= 0 && id < Bytes.length c.seen && Bytes.get c.seen id <> '\000'
      then Rejected Duplicate_signer
      else if not (Auth.verify_vote t.auth c.ballot partial) then
        Rejected Invalid_share
      else begin
        Bytes.set c.seen id '\001';
        c.partials <- partial :: c.partials;
        c.count <- c.count + 1;
        if c.count >= Auth.quorum t.auth then begin
          e.state <- Formed;
          match Auth.aggregate t.auth c.ballot c.partials with
          | Ok qc -> Quorum qc
          | Error err -> Rejected (Combine_failed err)
        end
        else Counted c.count
      end

let count t ~phase ~view ~block =
  match find ~phase ~view block (bucket t block.Qc.digest) with
  | { state = Collecting c; _ } -> c.count
  | { state = Formed; _ } -> Auth.quorum t.auth
  | exception Not_found -> 0

let gc_below_view t view =
  By_digest.filter_map_inplace
    (fun _ entries ->
      match List.filter (fun e -> e.view >= view) entries with
      | [] -> None
      | kept -> Some kept)
    t.entries
