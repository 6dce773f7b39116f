(** The lint report: what {!Engine_typed.run} returns and the CLI renders
    as text, GitHub annotations or one [marlin-lint/1] JSON document.
    Diagnostics are in {!Diagnostic.order} (rel path, line, col, rule), so
    a report is byte-identical across runs and filesystem orders. *)

type t = {
  files_scanned : int;
  diagnostics : Diagnostic.t list;  (** in canonical order *)
  suppressed : int;
  rules : Rules_typed.t list;  (** every rule the engine ran *)
  timings : (string * float) list;
      (** per-rule (and per-phase) seconds, in execution order; all zero
          unless the caller supplied a real clock, keeping default reports
          byte-identical *)
}

val canonical : Diagnostic.t list -> Diagnostic.t list
(** Sort into report order ({!Diagnostic.order}). *)

val errors : t -> int

val summary : Format.formatter -> t -> unit
(** The one-line summary: files, rules, errors, warnings, suppressed. *)

val pp_human : Format.formatter -> t -> unit
(** Compiler-style [file:line:col] lines plus a one-line summary. *)

val pp_github : Format.formatter -> t -> unit
(** GitHub Actions [::error file=…,line=…] workflow annotations, one per
    diagnostic, plus the summary line. *)

val schema : string
(** ["marlin-lint/1"]. *)

val to_json : t -> string
(** One schema-versioned JSON document; parseable with
    [Marlin_obs.Json_lite]. *)
