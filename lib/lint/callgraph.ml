(* The cross-module call graph the interprocedural rules run on.

   One node per structure-level value binding (functors included:
   [Marlin_impl.Make.on_message] is a node). Intra-unit references are
   resolved exactly through Ident stamps; everything else falls back to
   a normalized dotted path ([Marlin_core__Auth.quorum], [Auth.quorum]
   and [Marlin_core.Auth.quorum] all normalize to "Auth.quorum"), and
   cross-unit edges connect by that string — suffix-stable because dune
   wrapper prefixes and [Stdlib] are stripped.

   While walking each body we also track the per-replica iteration depth
   (for the linearity rule): entering the body or collection-dependent
   arguments of an iteration construct whose subject mentions a
   per-replica collection ([peers], [replicas], …, or the config field
   [n]) bumps the depth. Send-class sites — [Consensus_intf.action]
   constructors, [Netsim.send]/[broadcast], [Auth] signing — are
   recorded with the depth they occur at plus an intrinsic O(n) weight
   (a broadcast, or an O(n)-authenticator payload like
   [Message.New_view_proof], already costs n on its own). *)

type send_kind = Unicast | Broadcast | Auth_op | Wide_payload

type ref_site = { target : string; ref_loc : Location.t; ref_depth : int }

type send_site = {
  kind : send_kind;
  label : string;
  send_loc : Location.t;
  send_depth : int;
}

type node = {
  key : string;
  rel : string;
  def_loc : Location.t;
  refs : ref_site list;
  sends : send_site list;
}

type t = { nodes : (string, node) Hashtbl.t; order : string list }

let find t key = Hashtbl.find_opt t.nodes key
let order t = t.order

let weight = function
  | Unicast | Auth_op -> 0
  | Broadcast | Wide_payload -> 1

(* ---------- path normalization ---------- *)

let rec path_components p =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (q, s) -> path_components q @ [ s ]
  | Path.Papply (q, _) -> path_components q
  | Path.Pextra_ty (q, _) -> path_components q

let demangle comp = snd (Cmt_loader.split_wrapped comp)

let normalize ~wrappers comps =
  let comps = List.map demangle comps in
  match comps with
  | hd :: (_ :: _ as rest) when hd = "Stdlib" || List.mem hd wrappers -> rest
  | comps -> comps

let normalize_path ~wrappers p = normalize ~wrappers (path_components p)

let key_of comps = String.concat "." comps

(* ---------- classification tables ---------- *)

(* suffix (last two components) -> iteration HOF whose element count can
   be per-replica *)
let iteration_hofs =
  [
    ("List", "iter"); ("List", "iteri"); ("List", "map"); ("List", "mapi");
    ("List", "rev_map"); ("List", "concat_map"); ("List", "filter_map");
    ("List", "filter"); ("List", "fold_left"); ("List", "fold_right");
    ("List", "for_all"); ("List", "exists"); ("List", "init");
    ("Array", "iter"); ("Array", "iteri"); ("Array", "map"); ("Array", "mapi");
    ("Array", "fold_left"); ("Array", "init"); ("Array", "for_all");
    ("Array", "exists");
    ("Seq", "iter"); ("Seq", "map"); ("Seq", "fold_left");
    ("Hashtbl", "iter"); ("Hashtbl", "fold");
  ]

(* names that denote "one entry per replica" when they appear in the
   collection argument of an iteration (or in a for-loop bound) *)
let per_replica_names =
  [
    "peers"; "replicas"; "dsts"; "endpoints"; "recipients"; "others";
    "members"; "signers"; "acceptors"; "validators";
  ]

let send_fns =
  [
    (("Netsim", "send"), (Unicast, "Netsim.send"));
    (("Netsim", "broadcast"), (Broadcast, "Netsim.broadcast"));
    (("Auth", "sign_vote"), (Auth_op, "Auth.sign_vote"));
    (("Auth", "verify_vote"), (Auth_op, "Auth.verify_vote"));
    (("Auth", "verify_qc"), (Auth_op, "Auth.verify_qc"));
    (("Auth", "combine"), (Auth_op, "Auth.combine"));
  ]

let last2 comps =
  match List.rev comps with
  | b :: a :: _ -> Some (a, b)
  | _ -> None

let type_suffix ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> last2 (List.map demangle (path_components p))
  | _ -> None

let rec path_head = function
  | Path.Pident id -> id
  | Path.Pdot (q, _) | Path.Papply (q, _) | Path.Pextra_ty (q, _) ->
      path_head q

(* ---------- builder state ---------- *)

type builder = {
  wrappers : string list;
  vals : (string, string) Hashtbl.t;  (* Ident.unique_name -> node key *)
  mods : (string, string list) Hashtbl.t;  (* Ident.unique_name -> module comps *)
  mutable out : node list;  (* reverse order *)
}

(* A path's components with local module aliases resolved: with
   [module C = Consensus_intf], [C.quorum] reads as
   ["Consensus_intf"; "quorum"] and the type [C.action] as
   ["Consensus_intf"; "action"]. *)
let resolve_comps b p =
  let comps = path_components p in
  match p with
  | Path.Pident _ -> normalize ~wrappers:b.wrappers comps
  | _ -> (
      match Hashtbl.find_opt b.mods (Ident.unique_name (path_head p)) with
      | Some mod_comps ->
          (* an alias of a library ([module Core = Marlin_core]) leaves
             the wrapper at the head until the path is joined *)
          normalize ~wrappers:b.wrappers (mod_comps @ List.tl comps)
      | None -> normalize ~wrappers:b.wrappers comps)

let resolve b p =
  match p with
  | Path.Pident id when Hashtbl.mem b.vals (Ident.unique_name id) ->
      Hashtbl.find b.vals (Ident.unique_name id)
  | _ -> key_of (resolve_comps b p)

let resolved_type_suffix b ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> last2 (resolve_comps b p)
  | _ -> None

(* ---------- phase A: register structure-level stamps ---------- *)

let rec register_pattern :
    type k. builder -> string list -> k Typedtree.general_pattern -> unit =
 fun b prefix pat ->
  match pat.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, name) ->
      Hashtbl.replace b.vals (Ident.unique_name id)
        (key_of (prefix @ [ name.Location.txt ]))
  | Typedtree.Tpat_alias (q, id, name) ->
      Hashtbl.replace b.vals (Ident.unique_name id)
        (key_of (prefix @ [ name.Location.txt ]));
      register_pattern b prefix q
  | Typedtree.Tpat_tuple ps -> List.iter (register_pattern b prefix) ps
  | Typedtree.Tpat_construct (_, _, ps, _) ->
      List.iter (register_pattern b prefix) ps
  | Typedtree.Tpat_record (fields, _) ->
      List.iter (fun (_, _, p) -> register_pattern b prefix p) fields
  | Typedtree.Tpat_array ps -> List.iter (register_pattern b prefix) ps
  | Typedtree.Tpat_or (p1, p2, _) ->
      register_pattern b prefix p1;
      register_pattern b prefix p2
  | Typedtree.Tpat_value v ->
      register_pattern b prefix
        (v :> Typedtree.value Typedtree.general_pattern)
  | _ -> ()

type mod_shape =
  | Shape_alias of string list
  | Shape_structure of Typedtree.structure
  | Shape_opaque

let rec mod_shape b me =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) ->
      Shape_alias (normalize ~wrappers:b.wrappers (path_components p))
  | Typedtree.Tmod_structure str -> Shape_structure str
  | Typedtree.Tmod_functor (_, body) -> mod_shape b body
  | Typedtree.Tmod_constraint (inner, _, _, _) -> mod_shape b inner
  | _ -> Shape_opaque

(* The structures a module expression passes to functors, e.g. the
   [struct ... end] of [include Replica.Drive (struct ... end)]. *)
let rec argument_structures b me =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_apply (f, arg, _) -> (
      argument_structures b f
      @
      match mod_shape b arg with
      | Shape_structure str -> [ str ]
      | Shape_alias _ | Shape_opaque -> argument_structures b arg)
  | Typedtree.Tmod_constraint (inner, _, _, _) -> argument_structures b inner
  | _ -> []

let rec register_structure b prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              register_pattern b prefix vb.Typedtree.vb_pat)
            vbs
      | Typedtree.Tstr_module mb -> register_module b prefix mb
      | Typedtree.Tstr_recmodule mbs ->
          List.iter (register_module b prefix) mbs
      | _ -> ())
    str.Typedtree.str_items

and register_module b prefix (mb : Typedtree.module_binding) =
  match (mb.Typedtree.mb_id, mb.Typedtree.mb_name.Location.txt) with
  | Some id, Some name -> (
      let here = prefix @ [ name ] in
      match mod_shape b mb.Typedtree.mb_expr with
      | Shape_alias target ->
          Hashtbl.replace b.mods (Ident.unique_name id) target
      | Shape_structure str ->
          Hashtbl.replace b.mods (Ident.unique_name id) here;
          register_structure b here str
      | Shape_opaque -> Hashtbl.replace b.mods (Ident.unique_name id) here)
  | _ -> ()

(* ---------- phase B: walk bodies ---------- *)

let mentions_per_replica b expr =
  let found = ref false in
  let note comps =
    match List.rev comps with
    | last :: _ when last = "n" || List.mem last per_replica_names ->
        found := true
    | _ -> ()
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) ->
              note (normalize ~wrappers:b.wrappers (path_components p))
          | Typedtree.Texp_field (_, _, ld) -> note [ ld.Types.lbl_name ]
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  iter.Tast_iterator.expr iter expr;
  !found

let walk_node b ~key ~rel ~def_loc expr =
  let depth = ref 0 in
  let refs = ref [] in
  let sends = ref [] in
  let add_send kind label loc =
    sends := { kind; label; send_loc = loc; send_depth = !depth } :: !sends
  in
  let ident_suffix p =
    last2 (normalize ~wrappers:b.wrappers (path_components p))
  in
  let at_depth d f =
    let saved = !depth in
    depth := d;
    f ();
    depth := saved
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) ->
              let target = resolve b p in
              refs :=
                { target; ref_loc = e.Typedtree.exp_loc; ref_depth = !depth }
                :: !refs;
              (match ident_suffix p with
              | Some suffix -> (
                  match List.assoc_opt suffix send_fns with
                  | Some (kind, label) ->
                      add_send kind label e.Typedtree.exp_loc
                  | None -> ())
              | None -> ())
          | Typedtree.Texp_construct (lid, cd, args) -> (
              let cname = cd.Types.cstr_name in
              match resolved_type_suffix b cd.Types.cstr_res with
              | Some ("Consensus_intf", "action") when cname = "Broadcast" ->
                  add_send Broadcast "Consensus_intf.Broadcast"
                    lid.Location.loc;
                  (* the payload is built once per recipient: anything
                     O(n)-sized inside it makes the broadcast O(n^2) *)
                  at_depth (!depth + 1) (fun () ->
                      List.iter (self.Tast_iterator.expr self) args)
              | Some ("Consensus_intf", "action") when cname = "Send" ->
                  add_send Unicast "Consensus_intf.Send" lid.Location.loc;
                  List.iter (self.Tast_iterator.expr self) args
              | Some ("Message", "payload") when cname = "New_view_proof" ->
                  (* carries a quorum of QCs: O(n) authenticators *)
                  add_send Wide_payload "Message.New_view_proof"
                    lid.Location.loc;
                  List.iter (self.Tast_iterator.expr self) args
              | _ -> Tast_iterator.default_iterator.expr self e)
          | Typedtree.Texp_apply (fn, args) -> (
              let is_iteration_hof =
                match fn.Typedtree.exp_desc with
                | Typedtree.Texp_ident (p, _, _) -> (
                    match ident_suffix p with
                    | Some suffix ->
                        List.exists
                          (fun (m, f) ->
                            String.equal m (fst suffix)
                            && String.equal f (snd suffix))
                          iteration_hofs
                    | None -> false)
                | _ -> false
              in
              let collection_args =
                List.filter_map
                  (fun (_, arg) ->
                    match arg with
                    | Some a -> (
                        match a.Typedtree.exp_desc with
                        | Typedtree.Texp_function _ -> None
                        | _ -> Some a)
                    | None -> None)
                  args
              in
              match
                ( is_iteration_hof,
                  List.exists (mentions_per_replica b) collection_args )
              with
              | true, true ->
                  self.Tast_iterator.expr self fn;
                  at_depth (!depth + 1) (fun () ->
                      List.iter
                        (fun (_, arg) ->
                          Option.iter (self.Tast_iterator.expr self) arg)
                        args)
              | _ -> Tast_iterator.default_iterator.expr self e)
          | Typedtree.Texp_for (_, _, lo, hi, _, body) ->
              self.Tast_iterator.expr self lo;
              self.Tast_iterator.expr self hi;
              if mentions_per_replica b hi || mentions_per_replica b lo then
                at_depth (!depth + 1) (fun () ->
                    self.Tast_iterator.expr self body)
              else self.Tast_iterator.expr self body
          | _ -> Tast_iterator.default_iterator.expr self e);
    }
  in
  iter.Tast_iterator.expr iter expr;
  {
    key;
    rel;
    def_loc;
    refs = List.rev !refs;
    sends = List.rev !sends;
  }

let first_bound_name pat =
  let rec go : type k. k Typedtree.general_pattern -> string option =
   fun p ->
    match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (_, name) -> Some name.Location.txt
    | Typedtree.Tpat_alias (q, _, name) -> (
        match go q with Some n -> Some n | None -> Some name.Location.txt)
    | Typedtree.Tpat_tuple ps -> List.find_map go ps
    | Typedtree.Tpat_value v ->
        go (v :> Typedtree.value Typedtree.general_pattern)
    | _ -> None
  in
  go pat

let rec walk_structure b ~rel prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              let name =
                match first_bound_name vb.Typedtree.vb_pat with
                | Some n -> n
                | None ->
                    Printf.sprintf "(init:%d)"
                      item.Typedtree.str_loc.Location.loc_start
                        .Lexing.pos_lnum
              in
              let key = key_of (prefix @ [ name ]) in
              b.out <-
                walk_node b ~key ~rel
                  ~def_loc:vb.Typedtree.vb_pat.Typedtree.pat_loc
                  vb.Typedtree.vb_expr
                :: b.out)
            vbs
      | Typedtree.Tstr_eval (e, _) ->
          let key =
            key_of
              (prefix
              @ [
                  Printf.sprintf "(init:%d)"
                    item.Typedtree.str_loc.Location.loc_start.Lexing.pos_lnum;
                ])
          in
          b.out <-
            walk_node b ~key ~rel ~def_loc:item.Typedtree.str_loc e :: b.out
      | Typedtree.Tstr_module mb -> walk_module b ~rel prefix mb
      | Typedtree.Tstr_recmodule mbs ->
          List.iter (walk_module b ~rel prefix) mbs
      | Typedtree.Tstr_include incl ->
          walk_arguments b ~rel prefix incl.Typedtree.incl_mod
      | _ -> ())
    str.Typedtree.str_items

and walk_module b ~rel prefix (mb : Typedtree.module_binding) =
  match mb.Typedtree.mb_name.Location.txt with
  | Some name -> (
      match mod_shape b mb.Typedtree.mb_expr with
      | Shape_structure str -> walk_structure b ~rel (prefix @ [ name ]) str
      | Shape_alias _ -> ()
      | Shape_opaque ->
          walk_arguments b ~rel (prefix @ [ name ]) mb.Typedtree.mb_expr)
  | None -> ()

(* A functor argument's bindings are nodes under "(arg)", so what they
   refer to is reached, without shadowing the enclosing bindings. *)
and walk_arguments b ~rel prefix me =
  List.iter
    (walk_structure b ~rel (prefix @ [ "(arg)" ]))
    (argument_structures b me)

let build (loader : Cmt_loader.t) =
  let b =
    {
      wrappers = loader.Cmt_loader.wrappers;
      vals = Hashtbl.create 256;
      mods = Hashtbl.create 64;
      out = [];
    }
  in
  (* stamps first, across all units, so forward/cross references resolve *)
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      register_structure b [ u.Cmt_loader.modname ] u.Cmt_loader.structure)
    loader.Cmt_loader.units;
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      walk_structure b ~rel:u.Cmt_loader.rel [ u.Cmt_loader.modname ]
        u.Cmt_loader.structure)
    loader.Cmt_loader.units;
  let nodes = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (n : node) ->
      match Hashtbl.find_opt nodes n.key with
      | None ->
          Hashtbl.replace nodes n.key n;
          order := n.key :: !order
      | Some prev ->
          (* shadowed binding: merge, keeping the first definition's
             anchor so diagnostics stay stable *)
          Hashtbl.replace nodes n.key
            {
              prev with
              refs = prev.refs @ n.refs;
              sends = prev.sends @ n.sends;
            })
    (List.rev b.out);
  { nodes; order = List.rev !order }

(* ---------- linearity cost fixpoint ---------- *)

(* msd(node): the maximum per-replica nesting depth a single call into
   [node] can reach once its own loops, sends and callees are unfolded,
   capped at 2 (beyond quadratic we don't care). A call at depth d costs
   d + msd(callee). *)
let max_send_depth t =
  let msd = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace msd k 0) t.order;
  let lookup k = match Hashtbl.find_opt msd k with Some v -> v | None -> 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun k ->
        match find t k with
        | None -> ()
        | Some node ->
            let from_sends =
              List.fold_left
                (fun acc s -> max acc (s.send_depth + weight s.kind))
                0 node.sends
            in
            let from_refs =
              List.fold_left
                (fun acc r ->
                  if r.target = k then acc
                  else max acc (r.ref_depth + lookup r.target))
                0 node.refs
            in
            let v = min 2 (max from_sends from_refs) in
            if v > lookup k then begin
              Hashtbl.replace msd k v;
              changed := true
            end)
      t.order
  done;
  msd
