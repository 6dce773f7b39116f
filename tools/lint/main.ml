(* marlin_lint — repo-specific static analysis over the typed trees dune
   builds for lib/, bench/, test/, examples/ and this CLI
   (tools/lint/.main.eobjs), each of which calls into lib/.

   Usage: main.exe [options] DIR...
     DIR               a directory searched (recursively, .objs included)
                       for .cmt artifacts; run from the build context root
                       (_build/default) so sources and load paths resolve
     --json FILE       also write the marlin-lint/1 JSON report (- = stdout)
     --format FMT      human report format: text (default) or github
                       (GitHub Actions ::error annotations)
     --map F=T         rewrite units' rel prefix F to T (lint a fixture tree
                       as if it lived under lib/core)
     --warn RULE       demote RULE to warning severity (repeatable)
     --time            record real per-rule timings in the report (off by
                       default so reports stay byte-identical)
     --quiet           print only the summary line
     --list-rules      print every rule, then exit

   Exit status: 0 clean, 1 error-severity diagnostics, 2 usage error. *)

module Diagnostic = Marlin_lint.Diagnostic
module Report = Marlin_lint.Report
module Engine = Marlin_lint.Engine_typed
module Rules = Marlin_lint.Rules_typed

let usage () =
  prerr_endline
    "usage: main.exe [--json FILE|-] [--format text|github] [--map FROM=TO] \
     [--warn RULE] [--time] [--quiet] [--list-rules] DIR...";
  exit 2

let list_rules () =
  List.iter
    (fun (r : Rules.t) ->
      Printf.printf "%-20s %-7s %s\n" r.name
        (Diagnostic.severity_label r.severity)
        r.doc)
    Rules.all;
  exit 0

let split_map s =
  match String.index_opt s '=' with
  | Some i when i > 0 && i < String.length s - 1 ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | _ -> None

let () =
  let json = ref None
  and format = ref `Text
  and warn = ref []
  and map = ref None
  and time = ref false
  and quiet = ref false
  and dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | "--format" :: "text" :: rest ->
        format := `Text;
        parse rest
    | "--format" :: "github" :: rest ->
        format := `Github;
        parse rest
    | "--format" :: _ :: _ -> usage ()
    | "--map" :: spec :: rest -> (
        match split_map spec with
        | Some m ->
            map := Some m;
            parse rest
        | None -> usage ())
    | "--warn" :: rule :: rest ->
        if Option.is_none (Rules.find rule) then begin
          Printf.eprintf "marlin_lint: unknown rule %S (see --list-rules)\n"
            rule;
          exit 2
        end;
        warn := rule :: !warn;
        parse rest
    | "--time" :: rest ->
        time := true;
        parse rest
    | "--quiet" :: rest ->
        quiet := true;
        parse rest
    | "--list-rules" :: _ -> list_rules ()
    | ("--json" | "--format" | "--map" | "--warn") :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs = List.rev !dirs in
  if dirs = [] then usage ();
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "marlin_lint: no such path %S\n" p;
        exit 2
      end)
    dirs;
  (* tools/ is outside the lint scan, so this is the one place ambient
     timing is fine; the default null clock keeps reports byte-identical *)
  let clock = if !time then fun () -> Sys.time () else fun () -> 0. in
  let report = Engine.run ~clock ~warn:!warn ?map:!map ~paths:dirs () in
  (* with --json - the JSON document owns stdout; the human report moves
     to stderr so the stream stays parseable *)
  let fmt =
    match !json with
    | Some "-" -> Format.err_formatter
    | Some _ | None -> Format.std_formatter
  in
  (match (!quiet, !format) with
  | true, _ -> Report.summary fmt report
  | false, `Text -> Report.pp_human fmt report
  | false, `Github -> Report.pp_github fmt report);
  (match !json with
  | Some "-" -> print_endline (Report.to_json report)
  | Some file ->
      let oc = open_out file in
      output_string oc (Report.to_json report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "json -> %s\n" file
  | None -> ());
  exit (if Report.errors report > 0 then 1 else 0)
