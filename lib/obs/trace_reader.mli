(** Replay a JSONL trace file back into {!Trace.event}s, so span and
    critical-path analysis can run post hoc on the output of
    [bench/main.exe -- observe --trace FILE] (or any file produced by
    {!Trace.write_jsonl} / {!Run.write_trace}).

    Line order is buffer order, which the span reconstruction relies on —
    do not sort or merge trace files by timestamp. *)

val parse_line : string -> (string option * Trace.event, string) result
(** One JSONL line; the [string option] is the ["run"] label if present. *)

val read_file : string -> (string option * Trace.event) list
(** @raise Failure on a malformed line, [Sys_error] on a bad path. *)

val runs :
  (string option * Trace.event) list -> (string * Trace.event list) list
(** Group by run label (unlabelled lines group under [""]), preserving
    first-appearance order of labels and event order within each run —
    each group is ready for {!Span.reconstruct}. *)
