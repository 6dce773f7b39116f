(** The rule set: six repo-specific static checks over the untyped
    Parsetree. Detection is syntactic and conservative; waivers are inline
    [(* lint: allow <rule> — reason *)] comments (see {!Suppress}).

    Active rules:
    - [poly-compare] — no polymorphic [compare]/[=]/[Hashtbl.hash] on
      structured values in [lib/]
    - [hashtbl-order] — no [Hashtbl.fold]/[iter] building lists in
      hash-bucket order without an explicit sort
    - [float-equality] — no exact [=]/[<>] against float literals
    - [deprecated-alias] — no calls to values marked [@@ocaml.deprecated]
      in an .mli of the scanned tree
    - [toplevel-state] — no module-toplevel refs/hashtables in [lib/]
      (process-global state breaks run isolation)
    - [missing-mli] — every [lib/] module has an .mli ([*_intf] exempt)

    Determinism (no wall clock, no stdlib [Random], no ambient I/O) is
    checked by the typed pass only: [Marlin_lint_typed]'s
    [transitive-impurity] follows calls across modules. *)

type ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature
  | Broken of string * int * int
      (** parse failure: message, line, column — reported, never fatal *)

type file = {
  path : string;  (** as read from disk (or a label for string input) *)
  rel : string;  (** root-relative path; what rule scoping matches on *)
  source : string;
  ast : ast;
}

type project = {
  files : file list;
  has_file : string -> bool;
  deprecated : (string * string * string) list;
      (** [(Module, value, advice)] harvested from [@@ocaml.deprecated]
          attributes in the scanned [.mli]s *)
}

type t = {
  name : string;
  severity : Diagnostic.severity;
  doc : string;
  applies : string -> bool;  (** rel-path scoping *)
  check : project -> file -> Diagnostic.t list;
}

val all : t list
val find : string -> t option
