(** Loading dune's [.cmt] artifacts, the lint engine's only input.

    Walks the given directories (including the leading-dot [.objs] dirs
    dune uses), reads every [.cmt] with [Cmt_format.read_cmt], and keeps
    the implementation units with their full Typedtree, plus the typed
    signature of each unit's [.mli] from the [.cmti] beside its [.cmt].
    Module names are un-mangled from dune's wrapping ([Marlin_core__Auth]
    → [Auth]); the wrapper prefixes seen are reported so {!Callgraph} can
    normalize referenced paths the same way. *)

type interface = {
  mli_rel : string;  (** the [.mli]'s workspace-relative path, after [map] *)
  mli_source : string;  (** its source text, [""] if unreadable *)
  signature : Typedtree.signature;  (** from the [.cmti] beside the [.cmt] *)
}

type unit_info = {
  modname : string;  (** user-visible module name, wrapping stripped *)
  rel : string;  (** workspace-relative source path, after [map] *)
  source : string;  (** source text, [""] if unreadable *)
  intf : interface option;  (** the unit's [.mli], when it has one *)
  load_path : string list;
      (** the compiler's [-I] path for this unit, relative entries resolved
          against [source_root]: where its [.cmi] dependencies live, for
          rebuilding typing environments *)
  structure : Typedtree.structure;
}

type load_error = { cmt_path : string; message : string }

type t = {
  units : unit_info list;  (** sorted by cmt path, deduped by [rel] *)
  wrappers : string list;  (** dune wrapper-module prefixes seen *)
  errors : load_error list;  (** unreadable artifacts (version skew…) *)
}

val split_wrapped : string -> string option * string
(** ["Marlin_core__Auth"] → [(Some "Marlin_core", "Auth")];
    an unwrapped name has no prefix. Splits on the last ["__"]. *)

val load :
  ?map:string * string -> ?source_root:string -> paths:string list -> unit -> t
(** [load ~paths ()] scans [paths] for [.cmt] files. [map=(from_, to_)]
    rewrites each unit's [rel] prefix — used to lint fixture trees as if
    they lived under [lib/core] so path-scoped rules apply. [source_root]
    (default ["."]) is the build context root: it anchors
    [cmt_sourcefile]'s workspace-relative path when reading sources and
    the relative [-I] entries of [cmt_loadpath]. [cmt_builddir] is not
    used because it records the build machine's root and goes stale
    under sandboxed builds. *)
