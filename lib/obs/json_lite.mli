(** A minimal JSON reader and writer — just enough to write and parse the
    repo's own output (JSONL traces, [BENCH_*.json] baselines, span
    reports) with no external dependency. Not a general-purpose JSON
    library: [\uXXXX] escapes outside ASCII decode to ['?'], and numbers
    are plain [float]s. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val mem : string list -> t -> t option
(** Nested lookup: [mem ["a"; "b"] v] is [v.a.b]. *)

val to_float : t -> float option
val to_int : t -> int option
val to_list : t -> t list option

val float_at : string list -> t -> float option
val int_at : string list -> t -> int option
val string_at : string list -> t -> string option
val bool_at : string list -> t -> bool option

(** {1 Writing}

    Pure combinators over JSON text: each returns one rendered value and
    containers take rendered values, so a record's fields are listed once,
    each number at fixed decimals ([num ~dp] is [%.*f]). [obj] quotes its
    keys with [str]; [raw] inserts rendered text as is (a [%.3g] number,
    [null]). *)

val obj : (string * string) list -> string
val arr : string list -> string
val int : int -> string
val num : dp:int -> float -> string
val bool : bool -> string
val raw : string -> string

val str : string -> string
(** The one place a string is quoted: ['"'], ['\\'] and bytes below 0x20
    are escaped, every other byte is copied as is. *)

val summary :
  dp:int -> [ `Mean | `P50 | `P95 | `P99 | `P999 | `Min | `Max ] list ->
  Marlin_analysis.Stats.summary -> string
(** [{"count":…}], then the listed statistics in order, at [dp] decimals. *)
