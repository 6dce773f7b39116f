(** A minimal JSON reader — just enough to parse the repo's own output
    (JSONL traces, [BENCH_*.json] baselines) with no external dependency.
    Not a general-purpose JSON library: [\uXXXX] escapes outside ASCII
    decode to ['?'], and numbers are plain [float]s. *)

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
