(* Tests for the marlin_lint static analyzer: every rule gets a violating
   snippet (with the exact file:line:col asserted), a clean snippet, and a
   suppressed variant; plus the cross-file rules (deprecated-alias,
   missing-mli) over a real on-disk tree, the JSON report, and severity
   demotion. *)

(* lint: allow-file stale-waiver -- the waiver directives below live
   inside test string literals; the textual suppression scan cannot tell
   them from real ones *)

module Engine = Marlin_lint.Engine
module Diagnostic = Marlin_lint.Diagnostic
module Rules = Marlin_lint.Rules
module Report = Marlin_lint.Report
module Typed = Marlin_lint_typed.Engine_typed
module Rules_typed = Marlin_lint_typed.Rules_typed
module Json = Marlin_obs.Json_lite

(* ---------- helpers ---------- *)

let lint ?warn ?(path = "lib/snippet.ml") source =
  Engine.lint_source ?warn ~path ~source ()

(* Findings for one rule only — lint_source runs a single in-memory file,
   so every lib/*.ml snippet also (correctly) trips missing-mli; tests
   select the rule under test. *)
let findings rule result =
  List.filter
    (fun d -> d.Diagnostic.rule = rule)
    result.Engine.diagnostics

let anchors rule result =
  List.map (fun d -> (d.Diagnostic.line, d.Diagnostic.col)) (findings rule result)

let check_anchors msg expected actual =
  Alcotest.(check (list (pair int int))) msg expected actual

let flags rule source = anchors rule (lint source)

let clean rule source =
  Alcotest.(check (list (pair int int)))
    ("clean: " ^ rule) [] (flags rule source)

(* ---------- poly-compare ---------- *)

let test_poly_compare () =
  check_anchors "bare compare flagged" [ (1, 12) ]
    (flags "poly-compare" "let f a b = compare a b\n");
  check_anchors "Stdlib.compare flagged" [ (1, 12) ]
    (flags "poly-compare" "let g a b = Stdlib.compare a b\n");
  check_anchors "Hashtbl.hash flagged" [ (1, 10) ]
    (flags "poly-compare" "let h x = Hashtbl.hash x\n");
  check_anchors "( = ) on a structured operand flagged" [ (1, 10) ]
    (flags "poly-compare" "let p x = x = Some 3\n");
  clean "poly-compare" "let f a b = Int.compare a b\n";
  clean "poly-compare" "let p x = match x with Some 3 -> true | _ -> false\n";
  (* primitive operands are fine: the rule only fires on structured shapes *)
  clean "poly-compare" "let q x = x = 3\n";
  (* out of scope: the rule only applies under lib/ *)
  check_anchors "bench/ is out of scope" []
    (anchors "poly-compare"
       (lint ~path:"bench/snippet.ml" "let f a b = compare a b\n"))

(* ---------- hashtbl-order ---------- *)

let test_hashtbl_order () =
  check_anchors "fold building a list flagged" [ (1, 13) ]
    (flags "hashtbl-order"
       "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n");
  check_anchors "iter consing into a ref flagged" [ (2, 2) ]
    (flags "hashtbl-order"
       "let keys t acc =\n  Hashtbl.iter (fun k _ -> acc := k :: !acc) t\n");
  clean "hashtbl-order"
    "let keys t =\n\
    \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n";
  clean "hashtbl-order"
    "let keys t =\n\
    \  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort Int.compare\n";
  (* a local helper whose name says it sorts counts as an explicit sort *)
  clean "hashtbl-order"
    "let keys t =\n\
    \  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> sort_by_key\n";
  (* folds that do not build a list (sums, counts) are order-insensitive *)
  clean "hashtbl-order" "let n t = Hashtbl.fold (fun _ _ acc -> acc + 1) t 0\n"

(* ---------- float-equality ---------- *)

let test_float_equality () =
  check_anchors "( = ) against a float literal flagged" [ (1, 10) ]
    (flags "float-equality" "let p x = x = 1.0\n");
  check_anchors "( <> ) against a float literal flagged" [ (1, 10) ]
    (flags "float-equality" "let p x = 0.5 <> x\n");
  clean "float-equality" "let p x = Float.abs (x -. 1.0) < 1e-9\n";
  clean "float-equality" "let p x = x < 1.0\n"

(* ---------- toplevel-state ---------- *)

let test_toplevel_state () =
  check_anchors "toplevel Hashtbl.create flagged" [ (1, 0) ]
    (flags "toplevel-state" "let cache = Hashtbl.create 16\n");
  check_anchors "toplevel ref flagged" [ (1, 0) ]
    (flags "toplevel-state" "let hits = ref 0\n");
  clean "toplevel-state" "let create () = Hashtbl.create 16\n";
  (* out of scope outside lib/ *)
  check_anchors "test/ is out of scope" []
    (anchors "toplevel-state"
       (lint ~path:"test/snippet.ml" "let cache = Hashtbl.create 16\n"))

(* ---------- suppression ---------- *)

let test_suppression () =
  let src =
    "(* lint: allow poly-compare -- digests are flat strings here *)\n\
     let f a b = compare a b\n"
  in
  let r = lint src in
  check_anchors "waived finding dropped" [] (anchors "poly-compare" r);
  Alcotest.(check bool) "counted as suppressed" true (r.Engine.suppressed >= 1);
  (* same-line comment works too *)
  check_anchors "same-line waiver" []
    (anchors "float-equality"
       (lint "let p x = x = 1.0 (* lint: allow float-equality -- exact *)\n"));
  (* a waiver for rule A does not silence rule B *)
  check_anchors "waiver is per-rule" [ (2, 10) ]
    (flags "float-equality"
       "(* lint: allow poly-compare -- wrong rule *)\nlet p x = x = 1.0\n");
  (* file-wide waiver *)
  check_anchors "allow-file waives everywhere" []
    (anchors "float-equality"
       (lint
          "(* lint: allow-file float-equality -- table of exact constants *)\n\
           let p x = x = 1.0\n\
           let q x = x = 2.0\n"))

(* ---------- cross-file rules over a real tree ---------- *)

let with_temp_tree files f =
  let dir = Filename.temp_file "marlin_lint_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let cleanup = ref [ dir ] in
  List.iter
    (fun (rel, source) ->
      let path = Filename.concat dir rel in
      let parent = Filename.dirname path in
      if not (Sys.file_exists parent) then begin
        Sys.mkdir parent 0o755;
        cleanup := parent :: !cleanup
      end;
      let oc = open_out path in
      output_string oc source;
      close_out oc;
      cleanup := path :: !cleanup)
    files;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p ->
          try if Sys.is_directory p then Sys.rmdir p else Sys.remove p
          with Sys_error _ -> ())
        !cleanup)
    (fun () -> f dir)

let test_missing_mli () =
  with_temp_tree
    [
      ("lib/with_mli.ml", "let x = 1\n");
      ("lib/with_mli.mli", "val x : int\n");
      ("lib/without_mli.ml", "let y = 2\n");
      ("lib/shapes_intf.ml", "module type S = sig end\n");
    ]
    (fun dir ->
      let r = Engine.run ~root:dir ~paths:[ dir ] () in
      let hits =
        List.map (fun d -> d.Diagnostic.file) (findings "missing-mli" r)
      in
      Alcotest.(check (list string))
        "only the interface-less module is flagged, _intf exempt"
        [ "lib/without_mli.ml" ] hits)

let test_deprecated_alias () =
  with_temp_tree
    [
      ( "lib/legacy.mli",
        "val old_send : int -> unit\n\
        \  [@@ocaml.deprecated \"use Transport.send instead\"]\n" );
      ("lib/legacy.ml", "let old_send _ = ()\n");
      ("lib/caller.ml", "let ping () = Legacy.old_send 3\n");
      ("lib/caller.mli", "val ping : unit -> unit\n");
    ]
    (fun dir ->
      let r = Engine.run ~root:dir ~paths:[ dir ] () in
      match findings "deprecated-alias" r with
      | [ d ] ->
          Alcotest.(check string) "anchored at the call site" "lib/caller.ml"
            d.Diagnostic.file;
          Alcotest.(check bool) "message carries the advice" true
            (let msg = d.Diagnostic.message in
             let needle = "Transport.send" in
             let n = String.length msg and m = String.length needle in
             let rec go i = i + m <= n && (String.sub msg i m = needle || go (i + 1)) in
             go 0)
      | ds ->
          Alcotest.failf "expected exactly one deprecated-alias finding, got %d"
            (List.length ds))

(* ---------- severity demotion and report plumbing ---------- *)

let test_warn_demotes () =
  let r = lint ~warn:[ "poly-compare" ] "let f a b = compare a b\n" in
  match findings "poly-compare" r with
  | [ d ] ->
      Alcotest.(check string) "demoted to warning" "warning"
        (Diagnostic.severity_label d.Diagnostic.severity)
  | _ -> Alcotest.fail "expected exactly one poly-compare finding"

let test_exact_diagnostic_text () =
  let r = lint "let f a b = compare a b\n" in
  match findings "poly-compare" r with
  | [ d ] ->
      Alcotest.(check string) "compiler-style rendering"
        "lib/snippet.ml:1:12: [poly-compare] error: polymorphic compare; use \
         an explicit comparator (Rank.compare, Int.compare, String.compare, \
         ...)"
        (Format.asprintf "%a" Diagnostic.pp d)
  | _ -> Alcotest.fail "expected exactly one poly-compare finding"

let test_json_report () =
  let r = lint "let f a b = compare a b\nlet p x = x = 1.0\n" in
  let json = Json.parse_exn (Engine.to_json r) in
  Alcotest.(check (option string)) "schema tag" (Some Engine.schema)
    (Json.string_at [ "schema" ] json);
  Alcotest.(check (option int)) "files counted" (Some 1)
    (Json.int_at [ "files" ] json);
  Alcotest.(check (option int)) "errors counted" (Some (Engine.errors r))
    (Json.int_at [ "errors" ] json);
  let diags = Option.get (Json.to_list (Option.get (Json.mem [ "diagnostics" ] json))) in
  Alcotest.(check int) "every diagnostic serialized"
    (List.length r.Engine.diagnostics) (List.length diags);
  let poly =
    List.find
      (fun d -> Json.string_at [ "rule" ] d = Some "poly-compare")
      diags
  in
  Alcotest.(check (option int)) "line field" (Some 1)
    (Json.int_at [ "line" ] poly);
  Alcotest.(check (option int)) "col field" (Some 12)
    (Json.int_at [ "col" ] poly)

let test_broken_source_reported () =
  let r = lint "let f = (\n" in
  Alcotest.(check bool) "parse error surfaces as a finding" true
    (Engine.errors r > 0)

let test_rule_inventory () =
  Alcotest.(check int) "six rules ship" 6 (List.length Rules.all);
  Alcotest.(check bool) "find knows poly-compare" true
    (Option.is_some (Rules.find "poly-compare"));
  (* determinism is the typed pass's job alone *)
  Alcotest.(check bool) "no syntactic determinism rules" true
    (Option.is_none (Rules.find "wall-clock")
    && Option.is_none (Rules.find "workload-rng"));
  Alcotest.(check bool) "find rejects unknowns" true
    (Option.is_none (Rules.find "no-such-rule"))

(* ---------- typed pass over the seeded-violation fixtures ---------- *)

(* The fixture library compiles under tools/lint/fixtures_typed; the
   --typed-map equivalent below lints it as if it lived in lib/core so
   the protocol-scoped rules apply. The test binary runs from
   _build/default/test, hence the ".." source root. *)
let typed_result =
  lazy
    (Typed.run
       ~map:("tools/lint/fixtures_typed", "lib/core")
       ~source_root:".."
       ~paths:[ "../tools/lint/fixtures_typed/.lint_fixtures_typed.objs/byte" ]
       ())

let typed_anchors rule =
  let r = Lazy.force typed_result in
  List.filter_map
    (fun d ->
      if d.Diagnostic.rule = rule then
        Some (d.Diagnostic.file, d.Diagnostic.line, d.Diagnostic.col)
      else None)
    r.Typed.diagnostics

let check_typed_anchors msg expected rule =
  Alcotest.(check (list (triple string int int))) msg expected
    (typed_anchors rule)

let impurity_message line =
  let r = Lazy.force typed_result in
  (List.find
     (fun d ->
       d.Diagnostic.rule = "transitive-impurity" && d.Diagnostic.line = line)
     r.Typed.diagnostics)
    .Diagnostic.message

let mentions sub msg =
  let ls = String.length sub and l = String.length msg in
  let rec scan i = i + ls <= l && (String.sub msg i ls = sub || scan (i + 1)) in
  scan 0

let impurity_scope rel =
  (Option.get (Rules_typed.find "transitive-impurity")).Rules_typed.applies rel

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

(* Wall-clock reads are impurity roots of the typed pass, which covers
   every lib/ directory but the real filesystem and the linter. *)
let test_wall_clock () =
  Alcotest.(check bool) "Unix.gettimeofday flagged" true
    (mentions "Unix.gettimeofday" (impurity_message 10));
  List.iter
    (fun (rel, expected) ->
      Alcotest.(check bool) ("scope: " ^ rel) expected (impurity_scope rel))
    [
      ("lib/runtime/cluster.ml", true);
      ("lib/obs/trace.ml", true);
      ("lib/store/log_store.ml", false);
      ("lib/lint/rules.ml", false);
      ("lib/lint_typed/effects.ml", false);
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

let test_typed_waiver_interaction () =
  let r = Lazy.force typed_result in
  (* waived_linearity.ml is quadratic on purpose and carries a file-wide
     allow-file directive: its finding must be suppressed, and counted. *)
  Alcotest.(check (list (triple string int int)))
    "allow-file waiver suppresses the quadratic fixture" []
    (List.filter
       (fun (f, _, _) -> f = "lib/core/waived_linearity.ml")
       (typed_anchors "linearity"));
  Alcotest.(check bool) "suppression is counted" true (r.Typed.suppressed >= 1);
  (* stale_waiver.ml waives a rule that never fires: that surfaces as an
     error anchored at the directive line, so the gate fails on it. *)
  check_typed_anchors "unused waiver reported where it was written"
    [ ("lib/core/stale_waiver.ml", 5, 0) ]
    "stale-waiver";
  Alcotest.(check (list string)) "stale waivers are errors" [ "error" ]
    (List.filter_map
       (fun d ->
         if d.Diagnostic.rule = "stale-waiver" then
           Some (Diagnostic.severity_label d.Diagnostic.severity)
         else None)
       r.Typed.diagnostics)

let test_typed_rule_inventory () =
  Alcotest.(check int) "four typed rules ship" 4 (List.length Rules_typed.all);
  List.iter
    (fun rule ->
      Alcotest.(check bool) ("find knows " ^ rule) true
        (Option.is_some (Rules_typed.find rule)))
    [ "transitive-impurity"; "quorum-provenance"; "linearity";
      "exhaustive-handler" ];
  Alcotest.(check bool) "find rejects unknowns" true
    (Option.is_none (Rules_typed.find "no-such-rule"))

(* ---------- canonical ordering & report merging ---------- *)

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
  let shuffled = [ nth 3; nth 0; nth 4; nth 2; nth 1 ] in
  Alcotest.(check (list string)) "canonical = (rel, line, col, rule)"
    (List.map render sorted)
    (List.map render (Report.canonical shuffled));
  (* merging two passes re-sorts, so interleaved findings come out in the
     same canonical order in both the text and JSON renderings *)
  let report diags =
    { Report.empty with Report.diagnostics = diags; files_scanned = 1 }
  in
  let merged = Report.merge (report [ nth 4; nth 1 ]) (report [ nth 3; nth 0; nth 2 ]) in
  Alcotest.(check (list string)) "merge restores canonical order"
    (List.map render sorted)
    (List.map render merged.Report.diagnostics);
  let json = Json.parse_exn (Report.to_json merged) in
  let diags =
    Option.get (Json.to_list (Option.get (Json.mem [ "diagnostics" ] json)))
  in
  Alcotest.(check (list (option string))) "JSON serializes the same order"
    (List.map (fun d -> Some d.Diagnostic.rule) sorted)
    (List.map (fun d -> Json.string_at [ "rule" ] d) diags)

let test_json_byte_identical () =
  let run () =
    Typed.run
      ~map:("tools/lint/fixtures_typed", "lib/core")
      ~source_root:".."
      ~paths:[ "../tools/lint/fixtures_typed/.lint_fixtures_typed.objs/byte" ]
      ()
  in
  let j1 = Report.to_json (Typed.to_report (run ())) in
  let j2 = Report.to_json (Typed.to_report (run ())) in
  Alcotest.(check string) "two clean runs render byte-identically" j1 j2;
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
    ("deprecated-alias over a tree", `Quick, test_deprecated_alias);
    ("--warn demotes severity", `Quick, test_warn_demotes);
    ("diagnostic rendering is exact", `Quick, test_exact_diagnostic_text);
    ("json report round-trips", `Quick, test_json_report);
    ("broken source is a finding", `Quick, test_broken_source_reported);
    ("rule inventory", `Quick, test_rule_inventory);
    ("typed: transitive-impurity", `Quick, test_typed_transitive_impurity);
    ("typed: quorum-provenance", `Quick, test_typed_quorum_provenance);
    ("typed: linearity", `Quick, test_typed_linearity);
    ("typed: exhaustive-handler", `Quick, test_typed_exhaustive_handler);
    ("typed: waivers and stale-waiver", `Quick, test_typed_waiver_interaction);
    ("typed: rule inventory", `Quick, test_typed_rule_inventory);
    ("canonical diagnostic ordering", `Quick, test_canonical_ordering);
    ("typed: json byte-identical", `Quick, test_json_byte_identical);
    ("github annotation format", `Quick, test_github_format);
  ]

let () = Alcotest.run "lint" [ ("lint", suite) ]
