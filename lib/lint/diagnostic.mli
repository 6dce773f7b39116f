(** A single lint finding: rule, severity, and a precise [file:line:col]
    anchor. *)

type severity = Error | Warning

val severity_label : severity -> string

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as compilers print them *)
  message : string;
}

val make :
  rule:string ->
  severity:severity ->
  file:string ->
  line:int ->
  col:int ->
  string ->
  t

val order : t -> t -> int
(** File, then line, then column, then rule — the report order. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: [rule] severity: message] — one line, compiler style. *)

val to_github : t -> string
(** A GitHub Actions workflow command —
    [::error file=…,line=…,col=…,title=rule::message] — with %/CR/LF
    (and [:]/[,] in properties) percent-escaped per the Actions spec. *)

val to_json : t -> string
(** One JSON object, parseable by [Marlin_obs.Json_lite]. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON literal (used by {!Report}
    for the report envelope). *)
