(* The rule set. Every rule works on the untyped Parsetree (compiler-libs
   [Ast_iterator]), so detection is syntactic and deliberately
   conservative: each pattern below exists because the bug class it
   catches has bitten (or nearly bitten) this repository — see the rule
   docs. False positives are waived with an inline
   [(* lint: allow <rule> — reason *)]. *)

open Parsetree

type ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature
  | Broken of string * int * int  (* parse error: message, line, col *)

type file = { path : string; rel : string; source : string; ast : ast }

type project = {
  files : file list;
  has_file : string -> bool;  (* by rel path *)
  deprecated : (string * string * string) list;
      (* (Module, value, advice) collected from [@@ocaml.deprecated] *)
}

type t = {
  name : string;
  severity : Diagnostic.severity;
  doc : string;
  applies : string -> bool;
  check : project -> file -> Diagnostic.t list;
}

(* ---------- path scoping ---------- *)

let under dir rel =
  let prefix = dir ^ "/" in
  String.length rel > String.length prefix
  && String.sub rel 0 (String.length prefix) = prefix

let in_lib rel = under "lib" rel
let in_lib_or_bench rel = in_lib rel || under "bench" rel
let everywhere _ = true

(* ---------- small AST helpers ---------- *)

let loc_anchor (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let flatten lid =
  match Longident.flatten lid with l -> l | exception _ -> []

(* Does the identifier path end in [parts]? Matches both [Hashtbl.fold]
   and [Stdlib.Hashtbl.fold]. *)
let ends_with parts lid =
  let path = flatten lid in
  let lp = List.length path and ls = List.length parts in
  lp >= ls
  && List.filteri (fun i _ -> i >= lp - ls) path = parts

let dotted lid = String.concat "." (flatten lid)

let mk rule file loc message =
  let line, col = loc_anchor loc in
  Diagnostic.make ~rule:rule.name ~severity:rule.severity ~file:file.rel ~line
    ~col message

(* Run [on_expr] over every expression of a structure. [on_expr] receives
   the default-recursion thunk so rules can control traversal. *)
let iter_expressions str ~on_expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          on_expr e ~recurse:(fun () ->
              Ast_iterator.default_iterator.expr it e));
    }
  in
  it.structure it str

(* ---------- rule 1: poly-compare ---------- *)

let is_structured e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_tuple _ | Pexp_record _ | Pexp_array _ | Pexp_variant _ -> true
    | Pexp_construct ({ txt = Longident.Lident ("[]" | "::"); _ }, _) -> true
    | Pexp_construct (_, Some _) -> true
    | Pexp_constraint (e, _) -> go e
    | _ -> false
  in
  go e

let rec poly_compare =
  {
    name = "poly-compare";
    severity = Diagnostic.Error;
    doc =
      "no polymorphic compare/equality/hash on structured values in lib/: \
       use Rank.compare, digest equality, or a per-type comparator \
       (Int.compare, String.compare, ...)";
    applies = in_lib;
    check =
      (fun _project file ->
        match file.ast with
        | Intf _ | Broken _ -> []
        | Impl str ->
            let diags = ref [] in
            let flag loc msg = diags := mk poly_compare file loc msg :: !diags in
            iter_expressions str ~on_expr:(fun e ~recurse ->
                (match e.pexp_desc with
                | Pexp_ident { txt = Longident.Lident "compare"; loc } ->
                    flag loc
                      "polymorphic compare; use an explicit comparator \
                       (Rank.compare, Int.compare, String.compare, ...)"
                | Pexp_ident { txt; loc }
                  when ends_with [ "Stdlib"; "compare" ] txt ->
                    flag loc
                      "Stdlib.compare is polymorphic; use an explicit \
                       comparator"
                | Pexp_ident { txt; loc }
                  when ends_with [ "Hashtbl"; "hash" ] txt
                       || ends_with [ "Hashtbl"; "hash_param" ] txt ->
                    flag loc
                      (dotted txt
                     ^ " is the polymorphic hash; key tables by a primitive \
                        or a digest instead")
                | Pexp_apply
                    ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
                      [ (_, a); (_, b) ] )
                  when is_structured a || is_structured b ->
                    flag e.pexp_loc
                      (Printf.sprintf
                         "( %s ) on a structured value is polymorphic \
                          equality; match on the shape or use a per-type \
                          equal"
                         op)
                | _ -> ());
                recurse ());
            !diags);
  }

(* ---------- rule 2: hashtbl-order ---------- *)

let callback_builds_list e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ ->
      let found = ref false in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) ->
                  found := true
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.expr it e;
      !found
  | _ -> false

(* Any function whose own name mentions "sort" counts as an explicit
   re-ordering: List.sort and friends, but also local helpers like
   [sort_by_key] — naming the helper after what it does is the
   convention that keeps this recognisable. *)
let is_sort_path lid =
  match List.rev (flatten lid) with
  | [] -> false
  | last :: _ ->
      let contains_sort s =
        let n = String.length s and m = 4 in
        let rec go i =
          i + m <= n && (String.sub s i m = "sort" || go (i + 1))
        in
        go 0
      in
      contains_sort last

let is_sort_app e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> is_sort_path txt
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      is_sort_path txt
  | _ -> false

let rec hashtbl_order =
  {
    name = "hashtbl-order";
    severity = Diagnostic.Error;
    doc =
      "Hashtbl.fold/iter building a list exposes hash-bucket order; sort \
       the result explicitly (the simulator's byte-identical-run guarantee \
       dies on iteration-order leaks)";
    applies = in_lib_or_bench;
    check =
      (fun _project file ->
        match file.ast with
        | Intf _ | Broken _ -> []
        | Impl str ->
            let diags = ref [] in
            let sorted_depth = ref 0 in
            iter_expressions str ~on_expr:(fun e ~recurse ->
                let sort_context =
                  match e.pexp_desc with
                  | Pexp_apply
                      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
                      is_sort_path txt
                      || (ends_with [ "|>" ] txt || ends_with [ "@@" ] txt)
                         && List.exists (fun (_, a) -> is_sort_app a) args
                  | _ -> false
                in
                if sort_context then begin
                  incr sorted_depth;
                  recurse ();
                  decr sorted_depth
                end
                else begin
                  (match e.pexp_desc with
                  | Pexp_apply
                      ( { pexp_desc = Pexp_ident { txt; loc }; _ },
                        (_, callback) :: _ )
                    when !sorted_depth = 0
                         && (ends_with [ "Hashtbl"; "fold" ] txt
                            || ends_with [ "Hashtbl"; "iter" ] txt)
                         && callback_builds_list callback ->
                      diags :=
                        mk hashtbl_order file loc
                          (dotted txt
                         ^ " builds a list in hash-bucket order; sort it by \
                            an explicit key before it escapes")
                        :: !diags
                  | _ -> ());
                  recurse ()
                end);
            !diags);
  }

(* ---------- rule 3: float-equality ---------- *)

let rec is_floaty e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ })
    ->
      true
  | Pexp_constraint (e, _) -> is_floaty e
  | _ -> false

let rec float_equality =
  {
    name = "float-equality";
    severity = Diagnostic.Error;
    doc =
      "exact equality on floats ( = / <> against a float literal) is \
       almost never what a simulation check means; compare with a \
       tolerance";
    applies = everywhere;
    check =
      (fun _project file ->
        match file.ast with
        | Intf _ | Broken _ -> []
        | Impl str ->
            let diags = ref [] in
            iter_expressions str ~on_expr:(fun e ~recurse ->
                (match e.pexp_desc with
                | Pexp_apply
                    ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>" | "==" | "!=") as op); _ }; _ },
                      [ (_, a); (_, b) ] )
                  when is_floaty a || is_floaty b ->
                    diags :=
                      mk float_equality file e.pexp_loc
                        (Printf.sprintf
                           "( %s ) against a float literal; use a tolerance \
                            (Float.abs (a -. b) < eps) or restructure"
                           op)
                      :: !diags
                | _ -> ());
                recurse ());
            !diags);
  }

(* ---------- rule 4: deprecated-alias ---------- *)

let rec deprecated_alias =
  {
    name = "deprecated-alias";
    severity = Diagnostic.Error;
    doc =
      "no calls to values their .mli marks [@@ocaml.deprecated]; the \
       attribute's advice names the replacement";
    applies = everywhere;
    check =
      (fun project file ->
        match file.ast with
        | Intf _ | Broken _ -> []
        | Impl str ->
            let diags = ref [] in
            iter_expressions str ~on_expr:(fun e ~recurse ->
                (match e.pexp_desc with
                | Pexp_ident { txt; loc } ->
                    List.iter
                      (fun (m, v, advice) ->
                        if ends_with [ m; v ] txt then
                          diags :=
                            mk deprecated_alias file loc
                              (Printf.sprintf "%s.%s is deprecated%s" m v
                                 (if advice = "" then ""
                                  else ": " ^ advice))
                            :: !diags)
                      project.deprecated
                | _ -> ());
                recurse ());
            !diags);
  }

(* ---------- rule 5: toplevel-state ---------- *)

let mutable_ctor lid =
  (match flatten lid with [ "ref" ] -> true | _ -> false)
  || List.exists
       (fun p -> ends_with p lid)
       [
         [ "Hashtbl"; "create" ];
         [ "Queue"; "create" ];
         [ "Buffer"; "create" ];
         [ "Stack"; "create" ];
         [ "Atomic"; "make" ];
       ]

let rec toplevel_state =
  {
    name = "toplevel-state";
    severity = Diagnostic.Error;
    doc =
      "no mutable state at module top level in lib/ (refs, hashtables, \
       queues created once per process break run isolation); allocate \
       inside create () so every run gets a fresh instance";
    applies = in_lib;
    check =
      (fun _project file ->
        match file.ast with
        | Intf _ | Broken _ -> []
        | Impl str ->
            let diags = ref [] in
            List.iter
              (fun si ->
                match si.pstr_desc with
                | Pstr_value (_, vbs) ->
                    List.iter
                      (fun vb ->
                        let rec payload e =
                          match e.pexp_desc with
                          | Pexp_constraint (e, _) -> payload e
                          | _ -> e
                        in
                        match (payload vb.pvb_expr).pexp_desc with
                        | Pexp_apply
                            ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
                          when mutable_ctor txt ->
                            diags :=
                              mk toplevel_state file vb.pvb_loc
                                (dotted txt
                               ^ " at module top level is process-global \
                                  mutable state; allocate it in create ()")
                              :: !diags
                        | _ -> ())
                      vbs
                | _ -> ())
              str;
            !diags);
  }

(* ---------- rule 6: missing-mli ---------- *)

let rec missing_mli =
  {
    name = "missing-mli";
    severity = Diagnostic.Error;
    doc =
      "every lib/ module ships an .mli (modules named *_intf are \
       interface-only by convention and exempt)";
    applies =
      (fun rel ->
        in_lib rel
        && Filename.check_suffix rel ".ml"
        && not (Filename.check_suffix rel "_intf.ml"));
    check =
      (fun project file ->
        match file.ast with
        | Intf _ -> []
        | Impl _ | Broken _ ->
            if project.has_file (file.rel ^ "i") then []
            else
              [
                Diagnostic.make ~rule:missing_mli.name
                  ~severity:missing_mli.severity ~file:file.rel ~line:1 ~col:0
                  (Printf.sprintf
                     "module has no interface; add %si to pin its public \
                      surface"
                     file.rel);
              ]);
  }

let all =
  [
    poly_compare;
    hashtbl_order;
    float_equality;
    deprecated_alias;
    toplevel_state;
    missing_mli;
  ]

let find name = List.find_opt (fun r -> r.name = name) all
