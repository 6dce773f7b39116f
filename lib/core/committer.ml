open Marlin_types
module Sha256 = Marlin_crypto.Sha256
module C = Consensus_intf

type t = {
  cfg : C.config;
  store : Block_store.t;
  mutable pending : Qc.t option;
  mutable outstanding : Sha256.t list;
      (* fetched, not yet received: a few digests at most, since only a
         certified block that is missing here is fetched *)
}

type result = { committed : Block.t list; sends : C.action list }

let nothing = { committed = []; sends = [] }

let create cfg store = { cfg; store; pending = None; outstanding = [] }

type branch_gap = Gap_missing of Sha256.t | Gap_unresolved_virtual | Gap_none

(* The first gap on the branch from [b] down to the committed head: a body
   we can fetch, or an unresolved virtual parent we must wait out. *)
let first_branch_gap t (b : Block.t) =
  let head_height = (Block_store.last_committed t.store).Block.height in
  let rec go b =
    if b.Block.height <= head_height then Gap_none
    else
      match b.Block.pl with
      | Block.Root -> Gap_none
      | Block.Hash d -> (
          match Block_store.find t.store d with
          | Some parent -> go parent
          | None -> Gap_missing d)
      | Block.Nil -> (
          match Block_store.parent t.store b with
          | Some parent -> go parent
          | None -> Gap_unresolved_virtual)
  in
  go b

(* Fetches are re-issued on every delivery attempt for a still-missing
   body — a lost request or response must not wedge the replica, and the
   attempt rate is bounded by incoming certificates. *)
let fetch t ~view ~from digest =
  if from = t.cfg.C.id then []
  else begin
    if not (List.exists (Sha256.equal digest) t.outstanding) then
      t.outstanding <- digest :: t.outstanding;
    [
      C.Send
        {
          dst = from;
          msg = Message.make ~sender:t.cfg.C.id ~view (Message.Fetch { digest });
        };
    ]
  end

let rec deliver t ~view (qc : Qc.t) =
  (* Fetch from the certificate's leader, or any signer when we are it. *)
  let source =
    let l = C.leader_of t.cfg qc.Qc.view in
    if l <> t.cfg.C.id then l
    else
      match
        List.find_opt
          (fun s -> s <> t.cfg.C.id)
          qc.Qc.tsig.Marlin_crypto.Threshold.signers
      with
      | Some s -> s
      | None -> l
  in
  match Block_store.find t.store qc.Qc.block.Qc.digest with
  | None ->
      t.pending <- Some qc;
      { nothing with sends = fetch t ~view ~from:source qc.Qc.block.Qc.digest }
  | Some b -> (
      let clear_pending () =
        (* pending is a per-block fetch: match on the block reference, not
           the whole certificate (signer sets may differ) *)
        match t.pending with
        | Some p when Qc.block_ref_equal p.Qc.block qc.Qc.block ->
            t.pending <- None
        | Some _ | None -> ()
      in
      match Block_store.commit t.store b with
      | Ok [] ->
          clear_pending ();
          nothing
      | Ok blocks ->
          clear_pending ();
          { nothing with committed = blocks }
      | Error e -> (
          match first_branch_gap t b with
          | Gap_missing missing ->
              t.pending <- Some qc;
              { nothing with sends = fetch t ~view ~from:source missing }
          | Gap_unresolved_virtual ->
              t.pending <- Some qc;
              nothing
          | Gap_none ->
              (* A commit certificate conflicting with the committed chain
                 can only mean agreement broke; fail fast so tests and
                 operators see it. *)
              failwith ("SAFETY VIOLATION: " ^ e)))

and retry t =
  match t.pending with None -> nothing | Some qc -> deliver t ~view:qc.Qc.view qc

let note_block t b =
  Block_store.add t.store b;
  (match t.outstanding with
  | [] -> ()
  | outstanding ->
      let d = Block.digest b in
      t.outstanding <- List.filter (fun o -> not (Sha256.equal o d)) outstanding);
  match t.pending with
  | Some qc when Block_store.mem t.store qc.Qc.block.Qc.digest -> retry t
  | Some _ | None -> nothing

let solicited t b =
  let d = Block.digest b in
  List.exists (Sha256.equal d) t.outstanding || Block_store.mem t.store d

let handle_fetch t ~sender ~view digest =
  match Block_store.find t.store digest with
  | Some block ->
      [
        C.Send
          {
            dst = sender;
            msg = Message.make ~sender:t.cfg.C.id ~view (Message.Fetch_resp { block });
          };
      ]
  | None -> []
