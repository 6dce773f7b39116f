(* The lint report and its three renderings: compiler-style text, GitHub
   workflow annotations, and the marlin-lint/1 JSON document. *)

type t = {
  files_scanned : int;
  diagnostics : Diagnostic.t list;
  suppressed : int;
  rules : Rules_typed.t list;
  timings : (string * float) list;
}

(* Canonical report order — by rel path, line, col, rule — regardless of
   the order rules (or filesystems) produced the findings in. *)
let canonical diagnostics = List.sort Diagnostic.order diagnostics

let count severity r =
  List.length
    (List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.severity = severity)
       r.diagnostics)

let errors = count Diagnostic.Error
let warnings = count Diagnostic.Warning

let summary fmt r =
  Format.fprintf fmt
    "marlin_lint: %d file(s), %d rule(s): %d error(s), %d warning(s), %d \
     suppressed@."
    r.files_scanned (List.length r.rules) (errors r) (warnings r) r.suppressed

let pp_human fmt r =
  List.iter (fun d -> Format.fprintf fmt "%a@." Diagnostic.pp d) r.diagnostics;
  summary fmt r

let pp_github fmt r =
  List.iter
    (fun d -> Format.fprintf fmt "%s@." (Diagnostic.to_github d))
    r.diagnostics;
  summary fmt r

let schema = "marlin-lint/1"

let to_json r =
  let list f xs = String.concat "," (List.map f xs) in
  Printf.sprintf
    ({|{"schema":"%s","files":%d,"errors":%d,"warnings":%d,"suppressed":%d,|}
    ^^ {|"rules":[%s],"timings":[%s],"diagnostics":[%s]}|})
    schema r.files_scanned (errors r) (warnings r) r.suppressed
    (list
       (fun (rule : Rules_typed.t) ->
         Printf.sprintf {|{"name":"%s","severity":"%s","doc":"%s"}|}
           (Diagnostic.json_escape rule.name)
           (Diagnostic.severity_label rule.severity)
           (Diagnostic.json_escape rule.doc))
       r.rules)
    (list
       (fun (name, seconds) ->
         Printf.sprintf {|{"rule":"%s","seconds":%.6f}|}
           (Diagnostic.json_escape name) seconds)
       r.timings)
    (list Diagnostic.to_json r.diagnostics)
