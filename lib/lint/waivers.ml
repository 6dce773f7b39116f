(* Suppression filtering shared by the Parsetree and Typedtree passes:
   drop diagnostics a waiver covers, and report as an error every waiver
   that names a rule this pass runs but matched nothing — a stale waiver
   hides nothing today and will silently hide a real finding tomorrow,
   so it fails the gate like any other finding.

   Each pass only judges waivers naming rules it knows ([known_rules]):
   a typed-rule waiver (say, pbft's linearity allow-file) must not look
   stale to the parse pass, which never runs that rule. *)

let stale_rule = "stale-waiver"

let filter ~known_rules ~source_of ~files diagnostics =
  let suppress_memo : (string, Suppress.t) Hashtbl.t = Hashtbl.create 16 in
  let suppress_of rel =
    match Hashtbl.find_opt suppress_memo rel with
    | Some s -> s
    | None ->
        let s =
          match source_of rel with
          | Some source -> Suppress.of_source source
          | None -> Suppress.of_source ""
        in
        Hashtbl.replace suppress_memo rel s;
        s
  in
  let used : (string * Suppress.entry, unit) Hashtbl.t = Hashtbl.create 16 in
  let suppressed = ref 0 in
  let kept =
    List.filter
      (fun (d : Diagnostic.t) ->
        let sup = suppress_of d.Diagnostic.file in
        match
          Suppress.matching sup ~rule:d.Diagnostic.rule ~line:d.Diagnostic.line
        with
        | [] -> true
        | entries ->
            incr suppressed;
            List.iter
              (fun e -> Hashtbl.replace used (d.Diagnostic.file, e) ())
              entries;
            false)
      diagnostics
  in
  let stale =
    List.concat_map
      (fun rel ->
        let sup = suppress_of rel in
        List.filter_map
          (fun (e : Suppress.entry) ->
            if
              List.mem e.Suppress.rule known_rules
              && e.Suppress.rule <> stale_rule
              && not (Hashtbl.mem used (rel, e))
            then
              Some
                (Diagnostic.make ~rule:stale_rule
                   ~severity:Diagnostic.Error ~file:rel
                   ~line:e.Suppress.line ~col:0
                   (Printf.sprintf
                      "stale waiver: rule '%s' is waived here but produced \
                       no finding%s; remove the waiver or fix the rule name"
                      e.Suppress.rule
                      (if e.Suppress.file_wide then " in this file" else "")))
            else None)
          (Suppress.entries sup))
      files
  in
  (* Stale findings are themselves waivable (rule name "stale-waiver") —
     e.g. a waiver kept deliberately for a rule that fires only on some
     configurations. *)
  let stale =
    List.filter
      (fun (d : Diagnostic.t) ->
        let sup = suppress_of d.Diagnostic.file in
        if Suppress.allows sup ~rule:stale_rule ~line:d.Diagnostic.line then begin
          incr suppressed;
          false
        end
        else true)
      stale
  in
  (kept @ stale, !suppressed)
