(** The lint engine: loads [.cmt] artifacts ({!Cmt_loader}), builds the
    {!Callgraph}, runs {!Rules_typed.all} (each over the units in its
    scope), honours the inline [(* lint: allow *)] waivers with
    stale-waiver detection ({!Waivers}), and returns the {!Report}. *)

val run :
  ?clock:(unit -> float) ->
  ?warn:string list ->
  ?map:string * string ->
  ?source_root:string ->
  paths:string list ->
  unit ->
  Report.t
(** Scan [paths] for [.cmt] files and run every rule. [map] and
    [source_root] are forwarded to {!Cmt_loader.load}: [map] lets a
    fixture tree be linted under a protocol path so scoped rules apply.
    [warn] demotes the named rules to {!Diagnostic.Warning}. [clock]
    (seconds) feeds the per-rule timings, which stay zero under the
    default null clock. Unreadable artifacts surface as ["cmt-error"]
    diagnostics rather than aborting the run. *)
