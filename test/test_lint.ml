(* Tests for the marlin_lint static analyzer. Every rule runs over the
   compiled seeded-violation library tools/lint/fixtures_typed, linted as
   if it lived under lib/core: each rule's fixture file holds flagged
   cases (with the exact line:col asserted) next to clean ones, and the
   waiver fixtures cover line, same-line, per-rule, file-wide and stale
   waivers. Plus scope, severity demotion, ordering and the report
   formats. *)

module Engine = Marlin_lint.Engine_typed
module Cmt_loader = Marlin_lint.Cmt_loader
module Callgraph = Marlin_lint.Callgraph
module Diagnostic = Marlin_lint.Diagnostic
module Rules = Marlin_lint.Rules_typed
module Report = Marlin_lint.Report
module Json = Marlin_obs.Json_lite

(* ---------- helpers ---------- *)

(* The test binary runs from _build/default/test, hence the ".." source
   root; [under] is where the fixture units are linted as if they lived,
   lib/core by default so every path-scoped rule applies. *)
let fixtures_map = "tools/lint/fixtures_typed"
let fixtures_objs =
  "../tools/lint/fixtures_typed/.lint_fixtures_typed.objs/byte"

let lint_fixtures ?warn ?(under = "lib/core") () =
  Engine.run ?warn ~map:(fixtures_map, under) ~source_root:".."
    ~paths:[ fixtures_objs ] ()

let typed_result = lazy (lint_fixtures ())

let findings ?(report = Lazy.force typed_result) rule =
  List.filter
    (fun d -> String.equal d.Diagnostic.rule rule)
    report.Report.diagnostics

let typed_anchors ?report rule =
  List.map
    (fun d -> (d.Diagnostic.file, d.Diagnostic.line, d.Diagnostic.col))
    (findings ?report rule)

(* The (line, col) anchors of [rule]'s findings in one fixture file. *)
let anchors ?report rule file =
  List.filter_map
    (fun (f, line, col) ->
      if String.equal f file then Some (line, col) else None)
    (typed_anchors ?report rule)

let check_anchors msg expected actual =
  Alcotest.(check (list (pair int int))) msg expected actual

let check_typed_anchors msg expected rule =
  Alcotest.(check (list (triple string int int))) msg expected
    (typed_anchors rule)

let mentions sub msg =
  let ls = String.length sub and l = String.length msg in
  let rec scan i = i + ls <= l && (String.sub msg i ls = sub || scan (i + 1)) in
  scan 0

let message_at rule file line =
  (List.find
     (fun d -> String.equal d.Diagnostic.file file && d.Diagnostic.line = line)
     (findings rule))
    .Diagnostic.message

(* ---------- poly-compare ---------- *)

let test_poly_compare () =
  let file = "lib/core/bad_poly_compare.ml" in
  check_anchors
    "compare, Stdlib.compare and Hashtbl.hash at a type variable, ( = ) at \
     an option and a tuple, ( <> ) at a record, compare passed to List.sort"
    [ (6, 12); (7, 12); (8, 10); (9, 10); (10, 30); (11, 27); (12, 27) ]
    (anchors "poly-compare" file);
  (* lines 14-20 (Int.compare, a match, int, string, a constant-only
     variant, None, []) are clean: the list above is exact *)
  Alcotest.(check bool) "message names the instantiated type" true
    (mentions "at type int * int" (message_at "poly-compare" file 10));
  (* a Hashtbl.Make key hashed at its own int type is flat, so clean *)
  check_anchors "Hashtbl.hash at int is clean" []
    (anchors "poly-compare" "lib/core/bad_hashtbl_order.ml");
  (* out of scope: the rule only applies under lib/ *)
  check_anchors "bench/ is out of scope" []
    (anchors
       ~report:(lint_fixtures ~under:"bench" ())
       "poly-compare" "bench/bad_poly_compare.ml")

(* ---------- hashtbl-order ---------- *)

let test_hashtbl_order () =
  check_anchors
    "Hashtbl.fold, Hashtbl.iter consing into a ref, Pair_tbl.fold and a \
     Hashtbl.Make instance's fold, each building a list"
    [ (12, 13); (14, 2); (15, 14); (16, 17) ]
    (anchors "hashtbl-order" "lib/core/bad_hashtbl_order.ml");
  (* lines 18-25: List.sort around the fold, |> List.sort, |> a local
     sort_by_key helper, and a counting fold are clean *)
  Alcotest.(check bool) "message names the call as written" true
    (mentions "Tbl.fold builds a list"
       (message_at "hashtbl-order" "lib/core/bad_hashtbl_order.ml" 16))

(* ---------- float-equality ---------- *)

let test_float_equality () =
  check_anchors "( = ), ( <> ) and ( == ) against a float literal flagged"
    [ (3, 10); (4, 10); (5, 10) ]
    (anchors "float-equality" "lib/core/bad_float_equality.ml")

(* ---------- toplevel-state ---------- *)

let test_toplevel_state () =
  check_anchors "toplevel Hashtbl.create and ref flagged, create () clean"
    [ (3, 0); (4, 0) ]
    (anchors "toplevel-state" "lib/core/bad_toplevel_state.ml");
  (* out of scope outside lib/ *)
  check_anchors "test/ is out of scope" []
    (anchors
       ~report:(lint_fixtures ~under:"test" ())
       "toplevel-state" "test/bad_toplevel_state.ml")

(* ---------- suppression ---------- *)

let test_suppression () =
  let file = "lib/core/waived_findings.ml" in
  check_anchors "waived findings dropped" [] (anchors "poly-compare" file);
  Alcotest.(check bool) "counted as suppressed" true
    ((Lazy.force typed_result).Report.suppressed >= 3);
  (* the same-line waiver on line 6 holds; the poly-compare waiver above
     line 9 does not silence float-equality on it *)
  check_anchors "same-line waiver, and a waiver is per-rule" [ (9, 18) ]
    (anchors "float-equality" file);
  check_anchors "allow-file waives everywhere" []
    (anchors "float-equality" "lib/core/waived_file.ml")

(* ---------- missing-mli ---------- *)

let test_missing_mli () =
  Alcotest.(check (list string))
    "only the interface-less module is flagged, _intf exempt"
    [ "lib/core/bad_missing_mli.ml" ]
    (List.map (fun d -> d.Diagnostic.file) (findings "missing-mli"))

(* ---------- severity demotion and report plumbing ---------- *)

let test_warn_demotes () =
  let report = lint_fixtures ~warn:[ "poly-compare" ] () in
  match findings ~report "poly-compare" with
  | [] -> Alcotest.fail "expected poly-compare findings"
  | ds ->
      Alcotest.(check (list string)) "demoted to warning"
        (List.map (fun _ -> "warning") ds)
        (List.map (fun d -> Diagnostic.severity_label d.Diagnostic.severity) ds)

let test_exact_diagnostic_text () =
  match
    List.find_opt
      (fun d -> d.Diagnostic.line = 6)
      (findings "poly-compare")
  with
  | Some d ->
      Alcotest.(check string) "compiler-style rendering"
        "lib/core/bad_poly_compare.ml:6:12: [poly-compare] error: polymorphic \
         compare at type 'a; use an explicit comparator (Rank.compare, \
         Int.compare, String.compare, ...)"
        (Format.asprintf "%a" Diagnostic.pp d)
  | None -> Alcotest.fail "expected a poly-compare finding on line 6"

let test_json_report () =
  let r = Lazy.force typed_result in
  let json = Json.parse_exn (Report.to_json r) in
  Alcotest.(check (option string)) "schema tag" (Some Report.schema)
    (Json.string_at [ "schema" ] json);
  Alcotest.(check (option int)) "files counted" (Some r.Report.files_scanned)
    (Json.int_at [ "files" ] json);
  Alcotest.(check (option int)) "errors counted" (Some (Report.errors r))
    (Json.int_at [ "errors" ] json);
  let diags =
    Option.get (Json.to_list (Option.get (Json.mem [ "diagnostics" ] json)))
  in
  Alcotest.(check int) "every diagnostic serialized"
    (List.length r.Report.diagnostics) (List.length diags);
  let poly =
    List.find
      (fun d -> Json.string_at [ "rule" ] d = Some "poly-compare")
      diags
  in
  Alcotest.(check (option string)) "file field"
    (Some "lib/core/bad_poly_compare.ml") (Json.string_at [ "file" ] poly);
  Alcotest.(check (option int)) "line field" (Some 6)
    (Json.int_at [ "line" ] poly);
  Alcotest.(check (option int)) "col field" (Some 12)
    (Json.int_at [ "col" ] poly)

let test_rule_inventory () =
  Alcotest.(check (list string)) "ten rules ship, in run order"
    [
      "poly-compare"; "hashtbl-order"; "float-equality"; "toplevel-state";
      "missing-mli"; "transitive-impurity"; "quorum-provenance"; "linearity";
      "exhaustive-handler"; "dead-export";
    ]
    (List.map (fun (r : Rules.t) -> r.Rules.name) Rules.all);
  List.iter
    (fun rule ->
      Alcotest.(check bool) ("find knows " ^ rule) true
        (Option.is_some (Rules.find rule)))
    [ "poly-compare"; "hashtbl-order"; "float-equality"; "toplevel-state";
      "missing-mli" ];
  (* determinism is transitive-impurity's job alone, and deprecated
     calls are the compiler's *)
  Alcotest.(check bool) "no wall-clock, workload-rng or deprecated-alias" true
    (List.for_all
       (fun name -> Option.is_none (Rules.find name))
       [ "wall-clock"; "workload-rng"; "deprecated-alias" ]);
  Alcotest.(check bool) "find rejects unknowns" true
    (Option.is_none (Rules.find "no-such-rule"))

(* ---------- the interprocedural rules ---------- *)

let test_typed_rule_inventory () =
  let interprocedural =
    [ "transitive-impurity"; "quorum-provenance"; "linearity";
      "exhaustive-handler"; "dead-export" ]
  in
  List.iter
    (fun rule ->
      match Rules.find rule with
      | None -> Alcotest.failf "find misses %s" rule
      | Some r ->
          Alcotest.(check string) ("find returns " ^ rule) rule r.Rules.name;
          Alcotest.(check bool) (rule ^ " is an error") true
            (r.Rules.severity = Diagnostic.Error))
    interprocedural;
  (* the call-graph rules run after every per-unit rule *)
  let names = List.map (fun (r : Rules.t) -> r.Rules.name) Rules.all in
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  Alcotest.(check (list string)) "interprocedural rules run last"
    interprocedural
    (drop (List.length names - List.length interprocedural) names)

let impurity_message line =
  message_at "transitive-impurity" "lib/core/bad_transitive_impure.ml" line

let impurity_scope rel =
  (Option.get (Rules.find "transitive-impurity")).Rules.applies rel

let test_typed_transitive_impurity () =
  check_typed_anchors "direct and transitive impurity anchored at the binding"
    [
      ("lib/core/bad_transitive_impure.ml", 6, 4);
      ("lib/core/bad_transitive_impure.ml", 8, 4);
      ("lib/core/bad_transitive_impure.ml", 10, 4);
      ("lib/core/bad_transitive_impure.ml", 12, 4);
    ]
    "transitive-impurity";
  Alcotest.(check bool) "message names the witness call chain" true
    (mentions "via Bad_transitive_impure.jitter" (impurity_message 8))

(* Wall-clock reads are impurity roots of transitive-impurity, which
   covers every lib/ directory but the linter. *)
let test_wall_clock () =
  Alcotest.(check bool) "Unix.gettimeofday flagged" true
    (mentions "Unix.gettimeofday" (impurity_message 10));
  List.iter
    (fun (rel, expected) ->
      Alcotest.(check bool) ("scope: " ^ rel) expected (impurity_scope rel))
    [
      ("lib/runtime/cluster.ml", true);
      ("lib/obs/trace.ml", true);
      ("lib/sim/sim_disk.ml", true);
      ("lib/lint/rules_typed.ml", false);
      ("lib/lint/effects.ml", false);
      ("bench/main.ml", false);
    ]

(* Every stdlib Random reference is a root, Random.State included: the
   one sanctioned source is a seeded Marlin_sim.Rng stream. *)
let test_workload_rng () =
  Alcotest.(check bool) "Random.State.int flagged" true
    (mentions "Random.State.int" (impurity_message 12));
  Alcotest.(check bool) "lib/workload in scope" true
    (impurity_scope "lib/workload/arrival.ml")

let test_typed_quorum_provenance () =
  check_typed_anchors "2*f and n-f both flagged at the operator application"
    [
      ("lib/core/bad_raw_quorum.ml", 7, 49);
      ("lib/core/bad_raw_quorum.ml", 9, 43);
    ]
    "quorum-provenance"

let test_typed_linearity () =
  check_typed_anchors
    "lexically nested broadcast and the transitive O(n) callee both flagged"
    [
      ("lib/core/bad_nested_broadcast.ml", 10, 35);
      ("lib/core/bad_nested_broadcast.ml", 18, 24);
    ]
    "linearity"

let test_typed_exhaustive_handler () =
  check_typed_anchors "wildcard in a payload dispatch anchored at the pattern"
    [ ("lib/core/bad_wildcard_handler.ml", 9, 4) ]
    "exhaustive-handler"

let dead_mli = "lib/core/bad_dead_export.mli"

let test_typed_dead_export () =
  (* used_elsewhere and Nested.used_nested have a caller in
     dead_export_user.ml; from_include comes from an include; waived
     carries an inline waiver. In the functor signatures, Make.made_used
     is called through a module, Make.made_local through a local module,
     and Drive.driven is re-exported by an include *)
  check_anchors "only the three uncalled vals, anchored at their names"
    [ (4, 4); (8, 6); (27, 6) ]
    (anchors "dead-export" dead_mli);
  Alcotest.(check bool) "message names the nested path" true
    (mentions "'Bad_dead_export.Nested.unused_nested'"
       (message_at "dead-export" dead_mli 8));
  Alcotest.(check bool) "message names the path through the functor" true
    (mentions "'Bad_dead_export.Make.made_unused'"
       (message_at "dead-export" dead_mli 27));
  Alcotest.(check bool) "the inline waiver is used, not stale" true
    (List.for_all
       (fun d -> not (String.equal d.Diagnostic.file dead_mli))
       (findings "stale-waiver"))

(* Any other unit is a caller, wherever it lives: with the one unit that
   calls Bad_dead_export moved under test/ or examples/, the rule still
   flags only the uncalled vals (plus the waived one, since the rule is
   run without the engine's waiver pass). *)
let test_typed_dead_export_callers () =
  let loader =
    Cmt_loader.load ~map:(fixtures_map, "lib/core") ~source_root:".."
      ~paths:[ fixtures_objs ] ()
  in
  let rule = Option.get (Rules.find "dead-export") in
  List.iter
    (fun dir ->
      let units =
        List.map
          (fun (u : Cmt_loader.unit_info) ->
            if String.equal u.modname "Dead_export_user" then
              { u with rel = dir ^ "/dead_export_user.ml" }
            else u)
          loader.units
      in
      let ctx =
        {
          Rules.units =
            List.filter (fun (u : Cmt_loader.unit_info) -> rule.applies u.rel)
              units;
          wrappers = loader.wrappers;
          graph = Callgraph.build { loader with units };
        }
      in
      Alcotest.(check (list (pair string int)))
        ("caller under " ^ dir ^ "/")
        [ (dead_mli, 4); (dead_mli, 8); (dead_mli, 19); (dead_mli, 27) ]
        (List.map
           (fun (f : Rules.finding) -> (f.rel, f.loc.loc_start.pos_lnum))
           (rule.check ctx)))
    [ "test"; "examples" ]

(* A path that does not exist is a load error naming it, not an empty
   tree: the engine reports it as one cmt-error and scans nothing. *)
let test_missing_path () =
  let missing = "no/such/objs" in
  let loader = Cmt_loader.load ~paths:[ missing; fixtures_objs ] () in
  Alcotest.(check (list string)) "one error, naming the path" [ missing ]
    (List.map (fun (e : Cmt_loader.load_error) -> e.cmt_path) loader.errors);
  let report = Engine.run ~paths:[ missing ] () in
  Alcotest.(check int) "nothing scanned" 0 report.Report.files_scanned;
  Alcotest.(check (list (triple string int int))) "one cmt-error at the path"
    [ (missing, 1, 0) ]
    (typed_anchors ~report "cmt-error")

let test_typed_waiver_interaction () =
  let r = Lazy.force typed_result in
  (* waived_linearity.ml is quadratic on purpose and carries a file-wide
     allow-file directive: its finding must be suppressed, and counted. *)
  check_anchors "allow-file waiver suppresses the quadratic fixture" []
    (anchors "linearity" "lib/core/waived_linearity.ml");
  Alcotest.(check bool) "suppression is counted" true
    (r.Report.suppressed >= 1);
  (* stale_waiver.ml waives a rule that never fires: that surfaces as an
     error anchored at the directive line, so the gate fails on it. *)
  check_typed_anchors "unused waiver reported where it was written"
    [ ("lib/core/stale_waiver.ml", 5, 0) ]
    "stale-waiver";
  Alcotest.(check (list string)) "stale waivers are errors" [ "error" ]
    (List.map
       (fun d -> Diagnostic.severity_label d.Diagnostic.severity)
       (findings "stale-waiver"))

(* ---------- canonical ordering ---------- *)

let mk_diag ~file ~line ~col ~rule =
  Diagnostic.make ~rule ~severity:Diagnostic.Error ~file ~line ~col "m"

let render d = Format.asprintf "%a" Diagnostic.pp d

let test_canonical_ordering () =
  let sorted =
    [
      mk_diag ~file:"a.ml" ~line:1 ~col:0 ~rule:"beta";
      mk_diag ~file:"a.ml" ~line:1 ~col:0 ~rule:"gamma";
      mk_diag ~file:"a.ml" ~line:1 ~col:2 ~rule:"alpha";
      mk_diag ~file:"a.ml" ~line:2 ~col:0 ~rule:"alpha";
      mk_diag ~file:"b.ml" ~line:1 ~col:0 ~rule:"alpha";
    ]
  in
  let nth i = List.nth sorted i in
  let canonical = Report.canonical [ nth 3; nth 0; nth 4; nth 2; nth 1 ] in
  Alcotest.(check (list string)) "canonical = (rel, line, col, rule)"
    (List.map render sorted) (List.map render canonical);
  let report =
    {
      Report.files_scanned = 2;
      diagnostics = canonical;
      suppressed = 0;
      rules = [];
      timings = [];
    }
  in
  let json = Json.parse_exn (Report.to_json report) in
  let diags =
    Option.get (Json.to_list (Option.get (Json.mem [ "diagnostics" ] json)))
  in
  Alcotest.(check (list (option string))) "JSON serializes the same order"
    (List.map (fun d -> Some d.Diagnostic.rule) sorted)
    (List.map (fun d -> Json.string_at [ "rule" ] d) diags)

let test_json_byte_identical () =
  let j1 = Report.to_json (lint_fixtures ()) in
  let j2 = Report.to_json (lint_fixtures ()) in
  Alcotest.(check string) "two runs render byte-identically" j1 j2;
  Alcotest.(check (option string)) "schema tag" (Some "marlin-lint/1")
    (Json.string_at [ "schema" ] (Json.parse_exn j1))

let test_github_format () =
  let d =
    Diagnostic.make ~rule:"poly-compare" ~severity:Diagnostic.Error
      ~file:"lib/a.ml" ~line:3 ~col:7 "bad, stuff: 100%\nnext"
  in
  Alcotest.(check string) "workflow-command escaping"
    "::error file=lib/a.ml,line=3,col=7,title=poly-compare::bad, stuff: \
     100%25%0Anext"
    (Diagnostic.to_github d);
  let w =
    Diagnostic.make ~rule:"float-equality" ~severity:Diagnostic.Warning
      ~file:"lib/b,c.ml" ~line:1 ~col:0 "plain"
  in
  Alcotest.(check string) "warnings and property escaping"
    "::warning file=lib/b%2Cc.ml,line=1,col=0,title=float-equality::plain"
    (Diagnostic.to_github w)

let suite =
  [
    ("poly-compare", `Quick, test_poly_compare);
    ("hashtbl-order", `Quick, test_hashtbl_order);
    ("wall-clock", `Quick, test_wall_clock);
    ("workload-rng", `Quick, test_workload_rng);
    ("float-equality", `Quick, test_float_equality);
    ("toplevel-state", `Quick, test_toplevel_state);
    ("suppression comments", `Quick, test_suppression);
    ("missing-mli over a tree", `Quick, test_missing_mli);
    ("--warn demotes severity", `Quick, test_warn_demotes);
    ("diagnostic rendering is exact", `Quick, test_exact_diagnostic_text);
    ("json report round-trips", `Quick, test_json_report);
    ("rule inventory", `Quick, test_rule_inventory);
    ("typed: rule inventory", `Quick, test_typed_rule_inventory);
    ("typed: transitive-impurity", `Quick, test_typed_transitive_impurity);
    ("typed: quorum-provenance", `Quick, test_typed_quorum_provenance);
    ("typed: linearity", `Quick, test_typed_linearity);
    ("typed: exhaustive-handler", `Quick, test_typed_exhaustive_handler);
    ("typed: dead-export", `Quick, test_typed_dead_export);
    ("typed: dead-export callers anywhere", `Quick,
     test_typed_dead_export_callers);
    ("typed: a missing path is a load error", `Quick, test_missing_path);
    ("typed: waivers and stale-waiver", `Quick, test_typed_waiver_interaction);
    ("canonical diagnostic ordering", `Quick, test_canonical_ordering);
    ("typed: json byte-identical", `Quick, test_json_byte_identical);
    ("github annotation format", `Quick, test_github_format);
  ]

(* The fixture paths resolve only from _build/default/test, where dune
   runs the suite: run from elsewhere, stop on the loader's error instead
   of failing every case on an empty report. *)
let () =
  match findings "cmt-error" with
  | [] -> Alcotest.run "lint" [ ("lint", suite) ]
  | errors ->
      List.iter (fun d -> prerr_endline (render d)) errors;
      exit 1
