(** Inline waivers, with stale-waiver detection.

    [(* lint: allow <rule> — reason *)] silences [<rule>] on the comment's
    own line and the line below it; [(* lint: allow-file <rule> — reason *)]
    silences it for the whole file. The reason text is free-form but
    expected by convention. A directive naming a rule the engine runs that
    matched no diagnostic becomes a ["stale-waiver"] error anchored at the
    directive's line. *)

val filter :
  source_of:(string -> string option) ->
  files:string list ->
  Diagnostic.t list ->
  Diagnostic.t list * int
(** [filter ~source_of ~files diags] drops every diagnostic a waiver
    covers and appends stale-waiver errors for unused directives in
    [files] (rel paths) that name one of {!Rules_typed.all}. [source_of]
    maps a rel path to its source text. Returns the surviving diagnostics
    (unsorted) and the number suppressed. *)
