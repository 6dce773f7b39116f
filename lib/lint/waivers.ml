(* Inline waivers and stale-waiver detection. Two forms, both inside
   ordinary comments:

     (* lint: allow <rule> — reason *)        line-scoped
     (* lint: allow-file <rule> — reason *)   whole file

   A line-scoped waiver silences diagnostics for <rule> on the line the
   comment starts on and on the line after it, so it can sit at the end
   of the offending line or on its own line just above. The scan is
   textual (per line), so it needs only the unit's source.

   Every waiver that names a rule the engine runs but matched nothing is
   itself an error: a stale waiver hides nothing today and will silently
   hide a real finding tomorrow, so it fails the gate like any other
   finding. *)

type entry = { rule : string; line : int; file_wide : bool }

let stale_rule = "stale-waiver"

let is_word c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

(* Every "lint: allow[-file] <rule>" on one line; anything after the rule
   name (the reason) is free-form. *)
let scan_line ~line text =
  let marker = "lint:" in
  let n = String.length text in
  let rec find_from pos acc =
    match String.index_from_opt text pos 'l' with
    | None -> acc
    | Some i when i + 5 <= n && String.sub text i 5 = marker ->
        let rest = String.trim (String.sub text (i + 5) (n - i - 5)) in
        let starts p = String.starts_with ~prefix:p rest in
        let drop k = String.trim (String.sub rest k (String.length rest - k)) in
        let directive =
          if starts "allow-file" then Some (true, drop 10)
          else if starts "allow" then Some (false, drop 5)
          else None
        in
        let acc =
          match directive with
          | None -> acc
          | Some (file_wide, rest) ->
              let stop = ref 0 in
              while !stop < String.length rest && is_word rest.[!stop] do
                incr stop
              done;
              let rule = String.sub rest 0 !stop in
              if rule = "" then acc else { rule; line; file_wide } :: acc
        in
        find_from (i + 1) acc
    | Some i -> find_from (i + 1) acc
  in
  find_from 0 []

let entries_of source =
  List.concat
    (List.mapi
       (fun i text -> scan_line ~line:(i + 1) text)
       (String.split_on_char '\n' source))

let matching entries ~rule ~line =
  List.filter
    (fun e ->
      String.equal e.rule rule
      && (e.file_wide || e.line = line || e.line = line - 1))
    entries

let filter ~source_of ~files diagnostics =
  let memo : (string, entry list) Hashtbl.t = Hashtbl.create 16 in
  let entries rel =
    match Hashtbl.find_opt memo rel with
    | Some s -> s
    | None ->
        let s = entries_of (Option.value ~default:"" (source_of rel)) in
        Hashtbl.replace memo rel s;
        s
  in
  let used : (string * entry, unit) Hashtbl.t = Hashtbl.create 16 in
  let suppressed = ref 0 in
  let waived (d : Diagnostic.t) =
    match matching (entries d.file) ~rule:d.rule ~line:d.line with
    | [] -> false
    | hits ->
        incr suppressed;
        List.iter (fun e -> Hashtbl.replace used (d.file, e) ()) hits;
        true
  in
  let kept = List.filter (fun d -> not (waived d)) diagnostics in
  let stale =
    List.concat_map
      (fun rel ->
        List.filter_map
          (fun e ->
            if
              Option.is_some (Rules_typed.find e.rule)
              && not (Hashtbl.mem used (rel, e))
            then
              Some
                (Diagnostic.make ~rule:stale_rule ~severity:Diagnostic.Error
                   ~file:rel ~line:e.line ~col:0
                   (Printf.sprintf
                      "stale waiver: rule '%s' is waived here but produced \
                       no finding%s; remove the waiver or fix the rule name"
                      e.rule
                      (if e.file_wide then " in this file" else "")))
            else None)
          (entries rel))
      files
  in
  (* Stale findings are themselves waivable (rule name "stale-waiver"),
     e.g. for a waiver kept deliberately for a rule that fires only on
     some configurations. *)
  let stale = List.filter (fun d -> not (waived d)) stale in
  (kept @ stale, !suppressed)
