open Marlin_crypto

module Digest_tbl = Hashtbl.Make (struct
  type t = Sha256.t

  let equal = Sha256.equal
  let hash = Sha256.hash
end)

type node = { block : Block.t; mutable parent : Sha256.t option }

type t = {
  nodes : node Digest_tbl.t;
  mutable committed_head : Block.t;
  mutable committed_count : int;
}

let create () =
  let nodes = Digest_tbl.create 64 in
  Digest_tbl.replace nodes (Block.digest Block.genesis)
    { block = Block.genesis; parent = None };
  { nodes; committed_head = Block.genesis; committed_count = 0 }

let add t b =
  let d = Block.digest b in
  if not (Digest_tbl.mem t.nodes d) then
    let parent =
      match b.Block.pl with
      | Block.Root | Block.Nil -> None
      | Block.Hash p -> Some p
    in
    Digest_tbl.replace t.nodes d { block = b; parent }

let find t d =
  match Digest_tbl.find_opt t.nodes d with
  | Some node -> Some node.block
  | None -> None

let mem t d = Digest_tbl.mem t.nodes d
let size t = Digest_tbl.length t.nodes

let parent t b =
  match Digest_tbl.find_opt t.nodes (Block.digest b) with
  | None -> None
  | Some node -> (
      match node.parent with None -> None | Some p -> find t p)

let resolve_virtual_parent t ~virtual_digest ~parent_digest =
  match Digest_tbl.find_opt t.nodes virtual_digest with
  | Some node when Block.is_virtual node.block && node.parent = None ->
      node.parent <- Some parent_digest
  | Some _ | None -> ()

(* Walk up parent links from [b]; stop once height drops below [floor]. *)
let rec walk_up t b floor ~f =
  if b.Block.height < floor then false
  else if f b then true
  else
    match parent t b with
    | None -> false
    | Some p -> walk_up t p floor ~f

let extends t ~descendant ~ancestor =
  let floor =
    match find t ancestor with Some a -> a.Block.height | None -> 0
  in
  walk_up t descendant floor ~f:(fun b -> Sha256.equal (Block.digest b) ancestor)

let chain_to t b ~above =
  let rec go b acc =
    if Sha256.equal (Block.digest b) above then Some acc
    else
      match parent t b with
      | None -> None
      | Some p -> go p (b :: acc)
  in
  go b []

let last_committed t = t.committed_head
let committed_count t = t.committed_count

let agree = function
  | [] -> true
  | first :: _ as stores ->
      let height t = t.committed_head.Block.height in
      let best =
        List.fold_left
          (fun acc t -> if height t > height acc then t else acc)
          first stores
      in
      List.for_all
        (fun t ->
          extends best ~descendant:best.committed_head
            ~ancestor:(Block.digest t.committed_head))
        stores

let commit t b =
  let head_digest = Block.digest t.committed_head in
  if Block.digest b |> Sha256.equal head_digest then Ok []
  else if b.Block.height <= t.committed_head.Block.height then
    (* Re-delivery of an old certificate: fine iff it is on the committed
       branch; conflicting re-commits are a safety violation. *)
    if extends t ~descendant:t.committed_head ~ancestor:(Block.digest b) then Ok []
    else Error "commit: block conflicts with the committed chain"
  else
    match chain_to t b ~above:head_digest with
    | None -> Error "commit: block does not extend the committed head"
    | Some path ->
        t.committed_head <- b;
        t.committed_count <- t.committed_count + List.length path;
        Ok path
