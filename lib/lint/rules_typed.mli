(** The lint rules, all over dune's Typedtree.

    Per-unit rules, where the operand's type or the resolved identifier
    makes the check exact:

    - [poly-compare] (lib/): no [compare], [=], [<>] or
      [Hashtbl.hash]/[hash_param] instantiated at a non-flat type (a
      tuple, record, list, option, array, abstract type, type variable or
      variant with arguments). Base types, constant-only variants and a
      comparison against a constant constructor such as [None] pass.
    - [hashtbl-order] (lib/, bench/): no [Hashtbl.fold]/[iter] (on
      [Hashtbl] or a [Hashtbl.Make] instance) or [Pair_tbl.fold] building
      a list outside an explicit sort.
    - [float-equality] (everywhere): no [=], [<>], [==] or [!=] against a
      float literal.
    - [toplevel-state] (lib/): no refs, hashtables, queues, buffers,
      stacks or atomics created at module top level.
    - [missing-mli] (lib/, [*_intf] exempt): every unit has an [.mli].

    Interprocedural rules, over the {!Callgraph} of every loaded unit:

    - [transitive-impurity]: lib/, except the linter (which reads build
      artifacts), must not reach wall-clock time, stdlib [Random]
      ([Random.State] included) or ambient I/O, even through calls into
      other modules ({!Effects}). This is the repository's only
      determinism check.
    - [quorum-provenance]: protocol modules (lib/core, minus
      consensus_intf.ml where the thresholds are defined) must not
      re-derive vote thresholds as [k*f], [f+k] or [n-f].
    - [linearity]: no O(n) send (broadcast or O(n)-authenticator
      payload) inside per-replica iteration in lib/core, lexically or
      through calls ({!Callgraph.max_send_depth}); the intentionally
      quadratic pbft baseline carries an allow-file waiver.
    - [exhaustive-handler]: [Message.payload] dispatch in lib/core must
      enumerate every constructor — no wildcard drops.
    - [dead-export]: every [val] written in a lib/ [.mli] (inside nested
      [module X : sig ... end] too) needs a reference from another
      compilation unit. Values that come from an [include] and functor
      signatures are not checked. Every loaded unit counts as a caller,
      so the lint must load the whole tree: lib/, bench/, test/,
      examples/ and the lint CLI. *)

type context = {
  units : Cmt_loader.unit_info list;  (** the units in the rule's scope *)
  wrappers : string list;  (** dune wrapper prefixes ({!Cmt_loader.t}) *)
  graph : Callgraph.t;  (** over every loaded unit *)
}

type finding = { rel : string; loc : Location.t; message : string }

type t = {
  name : string;
  severity : Diagnostic.severity;
  doc : string;
  applies : string -> bool;  (** rel-path scope *)
  check : context -> finding list;
}

val all : t list
val find : string -> t option
