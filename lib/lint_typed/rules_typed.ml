(* The four interprocedural rules of the typed pass. Unlike the
   Parsetree rules (one file at a time), each check sees the whole
   loaded set — call graph, effect verdicts, linearity costs — and
   scopes its own diagnostics by rel path. *)

module Diagnostic = Marlin_lint.Diagnostic

type context = { loader : Cmt_loader.t; graph : Callgraph.t }

type t = {
  name : string;
  severity : Diagnostic.severity;
  doc : string;
  applies : string -> bool;
  check : context -> Diagnostic.t list;
}

(* ---------- helpers ---------- *)

let under prefix rel =
  let lp = String.length prefix in
  String.length rel >= lp
  && String.sub rel 0 lp = prefix
  && (String.length rel = lp || rel.[lp] = '/')

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let diag ~rule ~severity ~rel (loc : Location.t) message =
  let p = loc.Location.loc_start in
  Diagnostic.make ~rule ~severity ~file:rel
    ~line:p.Lexing.pos_lnum
    ~col:(max 0 (p.Lexing.pos_cnum - p.Lexing.pos_bol))
    message

let iter_expressions (str : Typedtree.structure) f =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.Tast_iterator.structure it str

let short key =
  match List.rev (String.split_on_char '.' key) with
  | last :: _ -> last
  | [] -> key

(* ---------- transitive-impurity ---------- *)

(* All of lib/ but the real filesystem (lib/store) and the linter itself. *)
let deterministic_scope rel =
  under "lib" rel
  && not (under "lib/store" rel || under "lib/lint" rel || under "lib/lint_typed" rel)

let transitive_impurity =
  {
    name = "transitive-impurity";
    severity = Diagnostic.Error;
    doc =
      "lib/ (except lib/store and the linter) must not reach wall-clock \
       time, stdlib Random (Random.State included), or ambient I/O — not \
       even transitively through other modules; pass Rng streams and \
       simulated time explicitly";
    applies = deterministic_scope;
    check =
      (fun ctx ->
        let verdicts = Effects.infer ctx.graph in
        List.filter_map
          (fun key ->
            match Callgraph.find ctx.graph key with
            | Some node when deterministic_scope node.Callgraph.rel -> (
                match Hashtbl.find_opt verdicts key with
                | Some v ->
                    Some
                      (diag ~rule:"transitive-impurity"
                         ~severity:Diagnostic.Error ~rel:node.Callgraph.rel
                         node.Callgraph.def_loc
                         (Printf.sprintf "'%s' is transitively impure: %s"
                            key (Effects.describe v)))
                | None -> None)
            | Some _ | None -> None)
          (Callgraph.order ctx.graph));
  }

(* ---------- quorum-provenance ---------- *)

(* consensus_intf.ml is where quorum/weak_quorum are DEFINED; the
   arithmetic is sanctioned there and nowhere else in lib/core. *)
let quorum_scope rel =
  under "lib/core" rel && not (ends_with ~suffix:"consensus_intf.ml" rel)

let quorum_provenance =
  let is_named name (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_field (_, _, ld) -> ld.Types.lbl_name = name
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> Ident.name id = name
    | _ -> false
  in
  let is_const (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_constant (Asttypes.Const_int _) -> true
    | _ -> false
  in
  {
    name = "quorum-provenance";
    severity = Diagnostic.Error;
    doc =
      "vote/QC thresholds in protocol modules must come from \
       Consensus_intf.quorum / weak_quorum or Auth.quorum — re-deriving \
       them as 2*f, n-f or f+1 is where quorum-intersection bugs start";
    applies = quorum_scope;
    check =
      (fun ctx ->
        let wrappers = ctx.loader.Cmt_loader.wrappers in
        List.concat_map
          (fun (u : Cmt_loader.unit_info) ->
            if not (quorum_scope u.Cmt_loader.rel) then []
            else begin
              let out = ref [] in
              iter_expressions u.Cmt_loader.structure (fun e ->
                  match e.Typedtree.exp_desc with
                  | Typedtree.Texp_apply
                      ( fn,
                        [
                          (Asttypes.Nolabel, Some a);
                          (Asttypes.Nolabel, Some b);
                        ] ) -> (
                      let op =
                        match fn.Typedtree.exp_desc with
                        | Typedtree.Texp_ident (p, _, _) -> (
                            match Callgraph.normalize_path ~wrappers p with
                            | [ op ] -> Some op
                            | _ -> None)
                        | _ -> None
                      in
                      let flag msg =
                        out :=
                          diag ~rule:"quorum-provenance"
                            ~severity:Diagnostic.Error ~rel:u.Cmt_loader.rel
                            e.Typedtree.exp_loc msg
                          :: !out
                      in
                      match op with
                      | Some "*"
                        when (is_named "f" a && is_const b)
                             || (is_const a && is_named "f" b) ->
                          flag
                            "raw quorum arithmetic 'k * f': thresholds must \
                             trace to Consensus_intf.quorum / weak_quorum or \
                             Auth.quorum"
                      | Some "+"
                        when (is_named "f" a && is_const b)
                             || (is_const a && is_named "f" b) ->
                          flag
                            "raw weak-quorum arithmetic 'f + k': use \
                             Consensus_intf.weak_quorum (the f+1 \
                             one-honest-replica threshold)"
                      | Some "-" when is_named "n" a && is_named "f" b ->
                          flag
                            "raw quorum arithmetic 'n - f': use \
                             Consensus_intf.quorum"
                      | _ -> ())
                  | _ -> ());
              List.rev !out
            end)
          ctx.loader.Cmt_loader.units);
  }

(* ---------- linearity ---------- *)

let linearity_scope rel = under "lib/core" rel

let linearity =
  {
    name = "linearity";
    severity = Diagnostic.Error;
    doc =
      "protocol steps must be O(n): no broadcast (or O(n)-authenticator \
       payload) inside per-replica iteration, and no per-replica sends \
       nested in a second per-replica loop — lexically or through calls";
    applies = linearity_scope;
    check =
      (fun ctx ->
        let msd = Callgraph.max_send_depth ctx.graph in
        let cost k =
          match Hashtbl.find_opt msd k with Some v -> v | None -> 0
        in
        List.concat_map
          (fun key ->
            match Callgraph.find ctx.graph key with
            | Some node when linearity_scope node.Callgraph.rel ->
                let from_sends =
                  List.filter_map
                    (fun (s : Callgraph.send_site) ->
                      if
                        s.Callgraph.send_depth >= 1
                        && s.Callgraph.send_depth
                           + Callgraph.weight s.Callgraph.kind
                           >= 2
                      then
                        let msg =
                          match s.Callgraph.kind with
                          | Callgraph.Broadcast ->
                              Printf.sprintf
                                "O(n^2) messages: %s inside per-replica \
                                 iteration — the linearity claim allows one \
                                 O(n) broadcast per protocol step"
                                s.Callgraph.label
                          | Callgraph.Wide_payload ->
                              Printf.sprintf
                                "O(n^2) authenticators: %s carries a quorum \
                                 of certificates and is built under a \
                                 broadcast or per-replica loop"
                                s.Callgraph.label
                          | Callgraph.Unicast ->
                              Printf.sprintf
                                "O(n^2) messages: %s at per-replica nesting \
                                 depth %d"
                                s.Callgraph.label s.Callgraph.send_depth
                          | Callgraph.Auth_op ->
                              Printf.sprintf
                                "O(n^2) authenticator operations: %s at \
                                 per-replica nesting depth %d"
                                s.Callgraph.label s.Callgraph.send_depth
                        in
                        Some
                          (diag ~rule:"linearity" ~severity:Diagnostic.Error
                             ~rel:node.Callgraph.rel s.Callgraph.send_loc msg)
                      else None)
                    node.Callgraph.sends
                in
                let from_refs =
                  List.filter_map
                    (fun (r : Callgraph.ref_site) ->
                      if
                        r.Callgraph.ref_depth >= 1
                        && r.Callgraph.target <> key
                        && cost r.Callgraph.target >= 1
                        && r.Callgraph.ref_depth + cost r.Callgraph.target
                           >= 2
                      then
                        Some
                          (diag ~rule:"linearity" ~severity:Diagnostic.Error
                             ~rel:node.Callgraph.rel r.Callgraph.ref_loc
                             (Printf.sprintf
                                "O(n^2) communication: '%s' performs O(n) \
                                 sends and is called inside per-replica \
                                 iteration"
                                (short r.Callgraph.target)))
                      else None)
                    node.Callgraph.refs
                in
                from_sends @ from_refs
            | Some _ | None -> [])
          (Callgraph.order ctx.graph));
  }

(* ---------- exhaustive-handler ---------- *)

let handler_scope rel = under "lib/core" rel

let rec pat_offends : type k. k Typedtree.general_pattern -> Location.t option
    =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any -> Some p.Typedtree.pat_loc
  | Typedtree.Tpat_var _ -> Some p.Typedtree.pat_loc
  | Typedtree.Tpat_alias (q, _, _) -> pat_offends q
  | Typedtree.Tpat_or (a, b, _) -> (
      match pat_offends a with Some l -> Some l | None -> pat_offends b)
  | Typedtree.Tpat_value v ->
      pat_offends (v :> Typedtree.value Typedtree.general_pattern)
  | _ -> None

let is_payload ty =
  match Callgraph.type_suffix ty with
  | Some ("Message", "payload") -> true
  | _ -> false

let exhaustive_handler =
  (* a dispatch = at least one explicit constructor case; a lone variable
     pattern (a function parameter of type payload, a simple rebinding)
     is not one, and flagging it would outlaw passing payloads around *)
  let check_cases :
      type k.
      rel:string -> k Typedtree.case list -> Diagnostic.t list ref -> unit =
   fun ~rel cases out ->
    let has_constructor_case =
      List.exists
        (fun (c : k Typedtree.case) ->
          Option.is_none (pat_offends c.Typedtree.c_lhs))
        cases
    in
    if has_constructor_case then
      List.iter
        (fun (c : k Typedtree.case) ->
          match pat_offends c.Typedtree.c_lhs with
          | Some loc ->
              out :=
                diag ~rule:"exhaustive-handler" ~severity:Diagnostic.Error
                  ~rel loc
                  "catch-all pattern in a Message.payload dispatch silently \
                   drops message kinds; enumerate every constructor so new \
                   kinds fail to compile here"
              :: !out
          | None -> ())
        cases
  in
  {
    name = "exhaustive-handler";
    severity = Diagnostic.Error;
    doc =
      "protocol message dispatch must enumerate every Message.payload \
       constructor — a wildcard silently drops newly added message kinds";
    applies = handler_scope;
    check =
      (fun ctx ->
        List.concat_map
          (fun (u : Cmt_loader.unit_info) ->
            if not (handler_scope u.Cmt_loader.rel) then []
            else begin
              let out = ref [] in
              iter_expressions u.Cmt_loader.structure (fun e ->
                  match e.Typedtree.exp_desc with
                  | Typedtree.Texp_match (scrut, cases, _)
                    when is_payload scrut.Typedtree.exp_type ->
                      check_cases ~rel:u.Cmt_loader.rel cases out
                  | Typedtree.Texp_function { cases = c :: _ as cases; _ }
                    when is_payload c.Typedtree.c_lhs.Typedtree.pat_type ->
                      check_cases ~rel:u.Cmt_loader.rel cases out
                  | _ -> ());
              List.rev !out
            end)
          ctx.loader.Cmt_loader.units);
  }

let all =
  [ transitive_impurity; quorum_provenance; linearity; exhaustive_handler ]

let find name = List.find_opt (fun r -> r.name = name) all
