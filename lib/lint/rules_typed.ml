(* The lint rules. Every rule runs on the Typedtree dune already built:
   the per-unit rules see each in-scope unit's tree with its types and
   resolved identifiers, and the interprocedural rules see the call
   graph over every loaded unit. The engine hands each rule only the
   units its [applies] admits and keeps only findings it admits. *)

type context = {
  units : Cmt_loader.unit_info list;
  wrappers : string list;
  graph : Callgraph.t;
}

type finding = { rel : string; loc : Location.t; message : string }

type t = {
  name : string;
  severity : Diagnostic.severity;
  doc : string;
  applies : string -> bool;
  check : context -> finding list;
}

(* ---------- helpers ---------- *)

let under prefix rel =
  let lp = String.length prefix in
  String.length rel >= lp
  && String.sub rel 0 lp = prefix
  && (String.length rel = lp || rel.[lp] = '/')

let everywhere _ = true

let start_of_file =
  let p = { Lexing.pos_fname = ""; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
  { Location.loc_start = p; loc_end = p; loc_ghost = true }

let short key =
  match List.rev (String.split_on_char '.' key) with
  | last :: _ -> last
  | [] -> key

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Run [on_expr u] over every expression of every unit [u] in scope. It
   reports through [flag] and decides how to descend: [recurse] visits
   all children, [visit] one chosen subexpression. Findings come back in
   source order, unit by unit. *)
let per_unit on_expr ctx =
  List.concat_map
    (fun (u : Cmt_loader.unit_info) ->
      let on_expr = on_expr u in
      let out = ref [] in
      let flag loc message = out := { rel = u.rel; loc; message } :: !out in
      let it =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun self e ->
              on_expr ~flag e
                ~visit:(self.expr self)
                ~recurse:(fun () ->
                  Tast_iterator.default_iterator.expr self e));
        }
      in
      it.structure it u.structure;
      List.rev !out)
    ctx.units

(* The compilation unit that declares an identifier's value, and the
   value's name: [("Hashtbl", "fold")] for [Hashtbl.fold] and for [fold]
   on any [Hashtbl.Make] instance, since a functor's output keeps the
   uids of the signature it was declared in. *)
let declared_in (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, { val_uid = Shape.Uid.Item { comp_unit; _ }; _ }) ->
      Some (snd (Cmt_loader.split_wrapped comp_unit), Path.last p)
  | _ -> None

let primitive (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (_, _, { val_kind = Val_prim p; _ }) -> Some p.prim_name
  | _ -> None

let written (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (_, lid, _) -> String.concat "." (Longident.flatten lid.txt)
  | _ -> "?"

let is_equality e =
  match primitive e with
  | Some ("%equal" | "%notequal" | "%eq" | "%noteq") -> true
  | Some _ | None -> false

let binary_args args =
  match args with
  | [ (Asttypes.Nolabel, Some a); (Asttypes.Nolabel, Some b) ] -> Some (a, b)
  | _ -> None

(* ---------- transitive-impurity ---------- *)

(* All of lib/ but the linter, which reads build artifacts from disk. *)
let deterministic_scope rel = under "lib" rel && not (under "lib/lint" rel)

let transitive_impurity =
  {
    name = "transitive-impurity";
    severity = Diagnostic.Error;
    doc =
      "lib/ (except the linter) must not reach wall-clock time, stdlib \
       Random (Random.State included), or ambient I/O — not even \
       transitively through other modules; pass Rng streams and simulated \
       time explicitly";
    applies = deterministic_scope;
    check =
      (fun ctx ->
        let verdicts = Effects.infer ctx.graph in
        List.filter_map
          (fun key ->
            match
              (Callgraph.find ctx.graph key, Hashtbl.find_opt verdicts key)
            with
            | Some node, Some v ->
                Some
                  {
                    rel = node.rel;
                    loc = node.def_loc;
                    message =
                      Printf.sprintf "'%s' is transitively impure: %s" key
                        (Effects.describe v);
                  }
            | _ -> None)
          (Callgraph.order ctx.graph));
  }

(* ---------- quorum-provenance ---------- *)

let quorum_provenance =
  let is_named name (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_field (_, _, ld) -> String.equal ld.lbl_name name
    | Texp_ident (Path.Pident id, _, _) -> String.equal (Ident.name id) name
    | _ -> false
  in
  let is_const (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_constant (Asttypes.Const_int _) -> true
    | _ -> false
  in
  let f_and_const a b =
    (is_named "f" a && is_const b) || (is_const a && is_named "f" b)
  in
  {
    name = "quorum-provenance";
    severity = Diagnostic.Error;
    doc =
      "vote/QC thresholds in protocol modules must come from \
       Consensus_intf.quorum / weak_quorum or Auth.quorum — re-deriving \
       them as 2*f, n-f or f+1 is where quorum-intersection bugs start";
    (* consensus_intf.ml is where quorum/weak_quorum are DEFINED; the
       arithmetic is sanctioned there and nowhere else in lib/core *)
    applies =
      (fun rel ->
        under "lib/core" rel
        && not (String.ends_with ~suffix:"consensus_intf.ml" rel));
    check =
      (fun ctx ->
        per_unit
          (fun _ ~flag (e : Typedtree.expression) ~visit:_ ~recurse ->
            (match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
                match
                  ( Callgraph.normalize_path ~wrappers:ctx.wrappers p,
                    binary_args args )
                with
                | [ "*" ], Some (a, b) when f_and_const a b ->
                    flag e.exp_loc
                      "raw quorum arithmetic 'k * f': thresholds must trace \
                       to Consensus_intf.quorum / weak_quorum or Auth.quorum"
                | [ "+" ], Some (a, b) when f_and_const a b ->
                    flag e.exp_loc
                      "raw weak-quorum arithmetic 'f + k': use \
                       Consensus_intf.weak_quorum (the f+1 one-honest-replica \
                       threshold)"
                | [ "-" ], Some (a, b) when is_named "n" a && is_named "f" b ->
                    flag e.exp_loc
                      "raw quorum arithmetic 'n - f': use Consensus_intf.quorum"
                | _ -> ())
            | _ -> ());
            recurse ())
          ctx);
  }

(* ---------- linearity ---------- *)

let linearity =
  {
    name = "linearity";
    severity = Diagnostic.Error;
    doc =
      "protocol steps must be O(n): no broadcast (or O(n)-authenticator \
       payload) inside per-replica iteration, and no per-replica sends \
       nested in a second per-replica loop — lexically or through calls";
    applies = under "lib/core";
    check =
      (fun ctx ->
        let msd = Callgraph.max_send_depth ctx.graph in
        let cost k = Option.value ~default:0 (Hashtbl.find_opt msd k) in
        List.concat_map
          (fun key ->
            match Callgraph.find ctx.graph key with
            | None -> []
            | Some node ->
                let from_sends =
                  List.filter_map
                    (fun (s : Callgraph.send_site) ->
                      if
                        s.send_depth >= 1
                        && s.send_depth + Callgraph.weight s.kind >= 2
                      then
                        let message =
                          match s.kind with
                          | Broadcast ->
                              Printf.sprintf
                                "O(n^2) messages: %s inside per-replica \
                                 iteration — the linearity claim allows one \
                                 O(n) broadcast per protocol step"
                                s.label
                          | Wide_payload ->
                              Printf.sprintf
                                "O(n^2) authenticators: %s carries a quorum \
                                 of certificates and is built under a \
                                 broadcast or per-replica loop"
                                s.label
                          | Unicast ->
                              Printf.sprintf
                                "O(n^2) messages: %s at per-replica nesting \
                                 depth %d"
                                s.label s.send_depth
                          | Auth_op ->
                              Printf.sprintf
                                "O(n^2) authenticator operations: %s at \
                                 per-replica nesting depth %d"
                                s.label s.send_depth
                        in
                        Some { rel = node.rel; loc = s.send_loc; message }
                      else None)
                    node.sends
                in
                let from_refs =
                  List.filter_map
                    (fun (r : Callgraph.ref_site) ->
                      if
                        r.ref_depth >= 1
                        && r.target <> key
                        && cost r.target >= 1
                        && r.ref_depth + cost r.target >= 2
                      then
                        Some
                          {
                            rel = node.rel;
                            loc = r.ref_loc;
                            message =
                              Printf.sprintf
                                "O(n^2) communication: '%s' performs O(n) \
                                 sends and is called inside per-replica \
                                 iteration"
                                (short r.target);
                          }
                      else None)
                    node.refs
                in
                from_sends @ from_refs)
          (Callgraph.order ctx.graph));
  }

(* ---------- exhaustive-handler ---------- *)

let rec pat_offends : type k. k Typedtree.general_pattern -> Location.t option
    =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> Some p.pat_loc
  | Tpat_alias (q, _, _) -> pat_offends q
  | Tpat_or (a, b, _) -> (
      match pat_offends a with Some l -> Some l | None -> pat_offends b)
  | Tpat_value v -> pat_offends (v :> Typedtree.value Typedtree.general_pattern)
  | _ -> None

let is_payload ty =
  match Callgraph.type_suffix ty with
  | Some ("Message", "payload") -> true
  | _ -> false

let exhaustive_handler =
  (* a dispatch = at least one explicit constructor case; a lone variable
     pattern (a function parameter of type payload, a simple rebinding)
     is not one, and flagging it would outlaw passing payloads around *)
  let check_cases : type k. flag:_ -> k Typedtree.case list -> unit =
   fun ~flag cases ->
    let is_constructor (c : k Typedtree.case) =
      Option.is_none (pat_offends c.c_lhs)
    in
    if List.exists is_constructor cases then
      List.iter
        (fun (c : k Typedtree.case) ->
          Option.iter
            (fun loc ->
              flag loc
                "catch-all pattern in a Message.payload dispatch silently \
                 drops message kinds; enumerate every constructor so new \
                 kinds fail to compile here")
            (pat_offends c.c_lhs))
        cases
  in
  {
    name = "exhaustive-handler";
    severity = Diagnostic.Error;
    doc =
      "protocol message dispatch must enumerate every Message.payload \
       constructor — a wildcard silently drops newly added message kinds";
    applies = under "lib/core";
    check =
      per_unit (fun _ ~flag (e : Typedtree.expression) ~visit:_ ~recurse ->
          (match e.exp_desc with
          | Texp_match (scrut, cases, _) when is_payload scrut.exp_type ->
              check_cases ~flag cases
          | Texp_function { cases = c :: _ as cases; _ }
            when is_payload c.c_lhs.pat_type ->
              check_cases ~flag cases
          | _ -> ());
          recurse ());
  }

(* ---------- dead-export ---------- *)

(* Every [val] written in a signature, keyed by its dotted path: nested
   [module X : sig ... end] and a functor's written result signature
   [module F (A : S) : sig ... end] included; [include]d items are not
   walked. *)
let rec written_vals prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value { val_name = name; _ } ->
          [ (String.concat "." (prefix @ [ name.txt ]), name.loc) ]
      | Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type =
              {
                mty_desc =
                  ( Tmty_signature sg
                  | Tmty_functor (_, { mty_desc = Tmty_signature sg; _ }) );
                _;
              };
            _;
          } ->
          written_vals (prefix @ [ name ]) sg
      | _ -> [])
    sg.sig_items

(* The key and the paths of the modules that hold it, shortest first:
   "A.B.c" gives "A", "A.B", "A.B.c". *)
let enclosing_paths key =
  let comps = String.split_on_char '.' key in
  List.mapi
    (fun i _ -> String.concat "." (List.filteri (fun j _ -> j <= i) comps))
    comps

let dead_export =
  {
    name = "dead-export";
    severity = Diagnostic.Error;
    doc =
      "every val written in a lib/ .mli must be referenced from another \
       compilation unit (lib/, bench/, test/, examples/ or the lint CLI); \
       delete what nothing calls";
    applies = under "lib";
    check =
      (fun ctx ->
        (* target -> the units (rel) that refer to it *)
        let callers = Hashtbl.create 4096 in
        List.iter
          (fun key ->
            Option.iter
              (fun (node : Callgraph.node) ->
                List.iter
                  (fun (r : Callgraph.ref_site) ->
                    Hashtbl.add callers r.target node.rel)
                  node.refs)
              (Callgraph.find ctx.graph key))
          (Callgraph.order ctx.graph);
        List.concat_map
          (fun (u : Cmt_loader.unit_info) ->
            match u.intf with
            | None -> []
            | Some intf ->
                let referenced path =
                  List.exists
                    (fun rel -> not (String.equal rel u.rel))
                    (Hashtbl.find_all callers path)
                in
                List.filter_map
                  (fun (key, loc) ->
                    (* an [include] of a module that holds the val
                       re-exports it: that counts as a reference *)
                    if List.exists referenced (enclosing_paths key) then None
                    else
                      Some
                        {
                          rel = intf.mli_rel;
                          loc;
                          message =
                            Printf.sprintf
                              "'%s' is exported but no other compilation \
                               unit refers to it; delete it or drop it from \
                               the interface"
                              key;
                        })
                  (written_vals [ u.modname ] intf.signature))
          ctx.units);
  }

(* ---------- poly-compare ---------- *)

let flat_types =
  Predef.
    [
      path_int; path_char; path_bool; path_unit; path_string; path_bytes;
      path_float; path_int32; path_int64; path_nativeint;
    ]

(* Structural compare/equality/hash is safe at a flat type: a base type or
   a variant whose constructors carry no arguments. Abbreviations are
   expanded first, so [Types.view = int] is flat; an abstract type, a
   type variable or anything with structure is not. Floats count as flat:
   exact float comparison is float-equality's concern. *)
let is_flat env ty =
  let ty = Ctype.expand_head env ty in
  match Types.get_desc ty with
  | Tconstr (p, _, _) when List.exists (Path.same p) flat_types -> true
  | Tconstr (p, _, _) -> (
      match (Env.find_type p env).type_kind with
      | Type_variant (cstrs, _) ->
          List.for_all
            (fun (c : Types.constructor_declaration) ->
              match c.cd_args with Cstr_tuple [] -> true | _ -> false)
            cstrs
      | _ -> false
      | exception Not_found -> false)
  | Tvariant row ->
      List.for_all
        (fun (_, f) ->
          match Types.row_field_repr f with
          | Rpresent None | Rabsent | Reither (true, [], _) -> true
          | Rpresent (Some _) | Reither _ -> false)
        (Types.row_fields row)
  | _ -> false

let rec arrow_args ty =
  match Types.get_desc ty with
  | Tarrow (_, a, r, _) -> a :: arrow_args r
  | _ -> []

let is_poly_compare e =
  match (primitive e, declared_in e) with
  | Some ("%compare" | "%equal" | "%notequal"), _
  | _, Some ("Hashtbl", ("hash" | "hash_param")) ->
      true
  | _ -> false

let is_constant_constructor (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, _, []) | Texp_variant (_, None) -> true
  | _ -> false

let poly_compare =
  let message (fn : Typedtree.expression) ty =
    match (primitive fn, declared_in fn) with
    | Some (("%equal" | "%notequal") as p), _ ->
        Format.asprintf
          "( %s ) at type %a is polymorphic equality; match on the shape or \
           use a per-type equal"
          (if String.equal p "%equal" then "=" else "<>")
          Printtyp.type_expr ty
    | _, Some ("Hashtbl", _) ->
        Format.asprintf
          "%s at type %a is the polymorphic hash; key tables by a primitive \
           or a digest instead"
          (written fn) Printtyp.type_expr ty
    | _ ->
        Format.asprintf
          "polymorphic compare at type %a; use an explicit comparator \
           (Rank.compare, Int.compare, String.compare, ...)"
          Printtyp.type_expr ty
  in
  {
    name = "poly-compare";
    severity = Diagnostic.Error;
    doc =
      "no polymorphic compare/equality/hash at a non-flat type in lib/ (a \
       tuple, record, list, option, array, abstract type, type variable or \
       variant with arguments): use Rank.compare, digest equality, or a \
       per-type comparator (Int.compare, String.compare, ...)";
    applies = under "lib";
    check =
      per_unit (fun u ->
          (* Typing environments are rebuilt from the unit's .cmi load
             path; where that fails, only the predefined types count as
             flat. *)
          let load_path =
            lazy
              (Load_path.init ~auto_include:Load_path.no_auto_include
                 u.load_path;
               Envaux.reset_cache ())
          in
          (* Flags [fn], an identifier of a polymorphic comparison, when
             it is instantiated at a non-flat type. *)
          let check_use ~flag (fn : Typedtree.expression) at =
            let env =
              try
                Lazy.force load_path;
                Envaux.env_of_only_summary fn.exp_env
              with _ -> Env.empty
            in
            match
              List.find_opt
                (fun ty -> not (is_flat env ty))
                (arrow_args fn.exp_type)
            with
            | Some ty -> flag at (message fn ty)
            | None -> ()
          in
          fun ~flag (e : Typedtree.expression) ~visit ~recurse ->
            match e.exp_desc with
            | Texp_apply (fn, args) when is_poly_compare fn ->
                let against_constant =
                  List.exists
                    (fun (_, a) ->
                      Option.fold ~none:false ~some:is_constant_constructor a)
                    args
                in
                if not against_constant then
                  check_use ~flag fn
                    (if is_equality fn then e.exp_loc else fn.exp_loc);
                List.iter (fun (_, a) -> Option.iter visit a) args
            | Texp_ident _ when is_poly_compare e -> check_use ~flag e e.exp_loc
            | _ -> recurse ());
  }

(* ---------- hashtbl-order ---------- *)

let callback_builds_list (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ ->
      let found = ref false in
      let it =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.exp_desc with
              | Texp_construct (_, { cstr_name = "::"; _ }, _ :: _) ->
                  found := true
              | _ -> ());
              Tast_iterator.default_iterator.expr self e);
        }
      in
      it.expr it e;
      !found
  | _ -> false

(* Any function whose own name mentions "sort" counts as an explicit
   re-ordering: List.sort and friends, but also local helpers like
   [sort_by_key]. Naming the helper after what it does is the convention
   that keeps this recognisable. *)
let is_sort (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _)
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      contains ~sub:"sort" (Path.last p)
  | _ -> false

let hashtbl_order =
  {
    name = "hashtbl-order";
    severity = Diagnostic.Error;
    doc =
      "Hashtbl.fold/iter (also on Hashtbl.Make instances) or Pair_tbl.fold \
       building a list exposes hash order; sort the result explicitly (the \
       simulator's byte-identical-run guarantee dies on iteration-order \
       leaks)";
    applies = (fun rel -> under "lib" rel || under "bench" rel);
    check =
      per_unit (fun _ ->
          let sorted_depth = ref 0 in
          fun ~flag (e : Typedtree.expression) ~visit:_ ~recurse ->
            match e.exp_desc with
            | Texp_apply (fn, args)
              when is_sort fn
                   || (match primitive fn with
                      | Some ("%revapply" | "%apply") ->
                          List.exists
                            (fun (_, a) ->
                              Option.fold ~none:false ~some:is_sort a)
                            args
                      | _ -> false) ->
                incr sorted_depth;
                recurse ();
                decr sorted_depth
            | Texp_apply (fn, (_, Some callback) :: _) ->
                (match declared_in fn with
                | Some ("Hashtbl", ("fold" | "iter") | "Pair_tbl", "fold")
                  when !sorted_depth = 0 && callback_builds_list callback ->
                    flag fn.exp_loc
                      (written fn
                     ^ " builds a list in hash-bucket order; sort it by an \
                        explicit key before it escapes")
                | _ -> ());
                recurse ()
            | _ -> recurse ());
  }

(* ---------- float-equality ---------- *)

let is_floaty (e : Typedtree.expression) =
  (match e.exp_desc with Texp_constant (Const_float _) -> true | _ -> false)
  || List.exists
       (fun (extra, _, _) ->
         match extra with
         | Typedtree.Texp_constraint
             { ctyp_desc = Ttyp_constr (p, _, []); _ } ->
             Path.same p Predef.path_float
         | _ -> false)
       e.exp_extra

let float_equality =
  {
    name = "float-equality";
    severity = Diagnostic.Error;
    doc =
      "exact equality on floats ( = / <> against a float literal) is \
       almost never what a simulation check means; compare with a \
       tolerance";
    applies = everywhere;
    check =
      per_unit (fun _ ~flag (e : Typedtree.expression) ~visit:_ ~recurse ->
          (match e.exp_desc with
          | Texp_apply (fn, args) when is_equality fn -> (
              match binary_args args with
              | Some (a, b) when is_floaty a || is_floaty b ->
                  flag e.exp_loc
                    (Printf.sprintf
                       "( %s ) against a float literal; use a tolerance \
                        (Float.abs (a -. b) < eps) or restructure"
                       (written fn))
              | _ -> ())
          | _ -> ());
          recurse ());
  }

(* ---------- toplevel-state ---------- *)

let mutable_ctors =
  [
    ("Stdlib", "ref"); ("Hashtbl", "create"); ("Queue", "create");
    ("Buffer", "create"); ("Stack", "create"); ("Atomic", "make");
  ]

let toplevel_state =
  {
    name = "toplevel-state";
    severity = Diagnostic.Error;
    doc =
      "no mutable state at module top level in lib/ (refs, hashtables, \
       queues created once per process break run isolation); allocate \
       inside create () so every run gets a fresh instance";
    applies = under "lib";
    check =
      (fun ctx ->
        List.concat_map
          (fun (u : Cmt_loader.unit_info) ->
            List.concat_map
              (fun (item : Typedtree.structure_item) ->
                match item.str_desc with
                | Tstr_value (_, vbs) ->
                    List.filter_map
                      (fun (vb : Typedtree.value_binding) ->
                        match vb.vb_expr.exp_desc with
                        | Texp_apply (fn, _) -> (
                            match declared_in fn with
                            | Some (m, v)
                              when List.exists
                                     (fun (m', v') ->
                                       String.equal m m' && String.equal v v')
                                     mutable_ctors ->
                                Some
                                  {
                                    rel = u.rel;
                                    loc = vb.vb_loc;
                                    message =
                                      written fn
                                      ^ " at module top level is \
                                         process-global mutable state; \
                                         allocate it in create ()";
                                  }
                            | _ -> None)
                        | _ -> None)
                      vbs
                | _ -> [])
              u.structure.str_items)
          ctx.units);
  }

(* ---------- missing-mli ---------- *)

let missing_mli =
  {
    name = "missing-mli";
    severity = Diagnostic.Error;
    doc =
      "every lib/ module ships an .mli (modules named *_intf are \
       interface-only by convention and exempt)";
    applies =
      (fun rel ->
        under "lib" rel && not (String.ends_with ~suffix:"_intf.ml" rel));
    check =
      (fun ctx ->
        List.filter_map
          (fun (u : Cmt_loader.unit_info) ->
            if Option.is_some u.intf then None
            else
              Some
                {
                  rel = u.rel;
                  loc = start_of_file;
                  message =
                    Printf.sprintf
                      "module has no interface; add %si to pin its public \
                       surface"
                      u.rel;
                })
          ctx.units);
  }

let all =
  [
    poly_compare;
    hashtbl_order;
    float_equality;
    toplevel_state;
    missing_mli;
    transitive_impurity;
    quorum_provenance;
    linearity;
    exhaustive_handler;
    dead_export;
  ]

let find name = List.find_opt (fun r -> String.equal r.name name) all
