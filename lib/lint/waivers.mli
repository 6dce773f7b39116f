(** Suppression filtering shared by both lint passes, with stale-waiver
    detection: a [(* lint: allow … *)] directive naming a rule this pass
    runs that matched no diagnostic becomes a ["stale-waiver"] error
    anchored at the directive's line. *)

val stale_rule : string
(** ["stale-waiver"] — the synthetic rule name stale findings carry. *)

val filter :
  known_rules:string list ->
  source_of:(string -> string option) ->
  files:string list ->
  Diagnostic.t list ->
  Diagnostic.t list * int
(** [filter ~known_rules ~source_of ~files diags] drops every diagnostic
    a waiver covers and appends stale-waiver errors for unused
    directives in [files] (rel paths) that name a rule in [known_rules].
    [source_of] maps a rel path to its source text (for the textual
    waiver scan). Returns the surviving diagnostics (unsorted) and the
    number suppressed. *)
