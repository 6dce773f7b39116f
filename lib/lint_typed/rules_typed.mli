(** The four interprocedural rules of the typed pass.

    Unlike the Parsetree rules, each [check] sees the whole loaded unit
    set — call graph, effect verdicts, linearity costs — and scopes its
    own diagnostics by rel path:

    - [transitive-impurity]: lib/, except lib/store (real file I/O) and
      the linter, must not reach wall-clock time, stdlib [Random]
      ([Random.State] included) or ambient I/O, even through calls into
      other modules ({!Effects}). This is the repository's only
      determinism check.
    - [quorum-provenance]: protocol modules (lib/core, minus
      consensus_intf.ml where the thresholds are defined) must not
      re-derive vote thresholds as [k*f], [f+k] or [n-f].
    - [linearity]: no O(n) send (broadcast or O(n)-authenticator
      payload) inside per-replica iteration, lexically or through calls
      ({!Callgraph.max_send_depth}); the intentionally quadratic pbft
      baseline carries an allow-file waiver.
    - [exhaustive-handler]: [Message.payload] dispatch must enumerate
      every constructor — no wildcard drops. *)

module Diagnostic = Marlin_lint.Diagnostic

type context = { loader : Cmt_loader.t; graph : Callgraph.t }

type t = {
  name : string;
  severity : Diagnostic.severity;
  doc : string;
  applies : string -> bool;  (** rel-path scope, for docs and tooling *)
  check : context -> Diagnostic.t list;
}

val all : t list
val find : string -> t option
