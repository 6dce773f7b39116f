(* Span recorder for the traced run, and the functor that times a protocol
   from the outside.

   Every span is opened and closed by the benchmark around a call into a
   library's public function; nothing inside lib/ is instrumented. Spans
   nest on an explicit stack, so a span's self time (its duration minus
   what its children cover) is computed when it closes: [mempool.get_batch]
   nested under [core.payload] is not counted twice, and the self times of
   one simulation run sum to its root [run] span exactly.

   When recording is off, [enter] and [leave] are a single branch each and
   the untraced benchmark never applies {!Timed} at all. *)

module C = Marlin_core.Consensus_intf
module Message = Marlin_types.Message
module Batch = Marlin_types.Batch
module Qc = Marlin_types.Qc

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---------- span names ---------- *)

let run = 0
let cluster_create = 1
let cluster_run = 2
let core_create = 3
let core_start = 4
let core_timer = 5
let core_payload = 6
let mempool_get_batch = 7
let obs_reconstruct = 8
let obs_critical_path = 9
let obs_bin_segments = 10
let core_msg_other = 11

(* Every {!Message.type_name} a protocol handler can receive, in the order
   {!msg_span} numbers them; client traffic never reaches [on_message] and
   would land in [core.msg.other]. *)
let msg_kinds =
  [
    "PROPOSE"; "VOTE-PRE-PREPARE"; "VOTE-PREPARE"; "VOTE-PRECOMMIT";
    "VOTE-COMMIT"; "CERT-PRE-PREPARE"; "CERT-PREPARE"; "CERT-PRECOMMIT";
    "CERT-COMMIT"; "VIEW-CHANGE"; "PRE-PREPARE"; "NEW-VIEW"; "NEW-VIEW-PROOF";
    "FETCH"; "FETCH-RESP";
  ]

let names =
  Array.of_list
    ([
       "run"; "cluster.create"; "cluster.run"; "core.create"; "core.start";
       "core.timer"; "core.payload"; "mempool.get_batch"; "obs.reconstruct";
       "obs.critical_path"; "obs.bin_segments"; "core.msg.other";
     ]
    @ List.map (fun k -> "core.msg." ^ k) msg_kinds)

let count = Array.length names

(* The span of a handled message: the position of its
   [Message.type_name] in [msg_kinds], found by a match on the payload
   because hashing the name on every call showed up in the traced run's
   overhead. The smoke run checks this match against [type_name]. *)
let msg_span (m : Message.t) =
  let phase = function
    | Qc.Pre_prepare -> 0
    | Qc.Prepare -> 1
    | Qc.Precommit -> 2
    | Qc.Commit -> 3
  in
  let kind =
    match m.Message.payload with
    | Message.Propose _ -> 0
    | Message.Vote { kind; _ } -> 1 + phase kind
    | Message.Phase_cert qc -> 5 + phase qc.Qc.phase
    | Message.View_change _ -> 9
    | Message.Pre_prepare _ -> 10
    | Message.New_view _ -> 11
    | Message.New_view_proof _ -> 12
    | Message.Fetch _ -> 13
    | Message.Fetch_resp _ -> 14
    | Message.Client_op _ | Message.Client_reply _ -> -1
  in
  core_msg_other + 1 + kind

let id_of_name name =
  let rec find i =
    if i >= count then invalid_arg ("Spans.id_of_name: " ^ name)
    else if String.equal names.(i) name then i
    else find (i + 1)
  in
  find 0

(* Protocol handler spans: everything [Timed] wraps except the mempool. *)
let is_core id =
  (id >= core_create && id <= core_payload) || id >= core_msg_other

(* ---------- recorder state ---------- *)

let max_depth = 32

(* Closed spans kept for the JSONL dump, in parallel preallocated arrays. *)
type buffer = {
  b_id : int array;
  b_name : int array;
  b_start : int array;
  b_stop : int array;
  b_parent : int array;
  b_run : int array;
  mutable len : int;
  mutable dropped : int;
}

type state = {
  mutable on : bool;
  mutable check_kinds : bool;
      (** compare {!msg_span} with [Message.type_name] on every message *)
  calls : int array;
  self_ns : int array;
  mutable actions : int;  (** actions returned by core handlers *)
  mutable batch_ops : int;  (** operations returned by get_batch *)
  mutable depth : int;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_id : int array;
  mutable next_id : int;
  mutable run_id : int;
  mutable run_self : int;
  mutable runs : int;
  mutable max_residue_ns : int;
      (** worst |sum of self times - root duration| over closed runs *)
  mutable buffer : buffer option;
}

let st =
  {
    on = false;
    check_kinds = false;
    calls = Array.make count 0;
    self_ns = Array.make count 0;
    actions = 0;
    batch_ops = 0;
    depth = 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    next_id = 0;
    run_id = 0;
    run_self = 0;
    runs = 0;
    max_residue_ns = 0;
    buffer = None;
  }

let set_recording on = st.on <- on
let check_kinds on = st.check_kinds <- on

let reset () =
  Array.fill st.calls 0 count 0;
  Array.fill st.self_ns 0 count 0;
  st.actions <- 0;
  st.batch_ops <- 0;
  st.runs <- 0;
  st.max_residue_ns <- 0

let keep_spans ~capacity =
  let mk () = Array.make capacity 0 in
  st.buffer <-
    Some
      {
        b_id = mk ();
        b_name = mk ();
        b_start = mk ();
        b_stop = mk ();
        b_parent = mk ();
        b_run = mk ();
        len = 0;
        dropped = 0;
      }

let enter id =
  if st.on then begin
    let d = st.depth in
    if d = 0 then begin
      st.run_id <- st.run_id + 1;
      st.run_self <- 0
    end;
    st.st_name.(d) <- id;
    st.st_child.(d) <- 0;
    st.st_id.(d) <- st.next_id;
    st.next_id <- st.next_id + 1;
    st.depth <- d + 1;
    st.st_start.(d) <- now_ns ()
  end

let leave () =
  if st.on then begin
    let stop = now_ns () in
    let d = st.depth - 1 in
    st.depth <- d;
    let id = st.st_name.(d) in
    let start = st.st_start.(d) in
    let dur = stop - start in
    let self = dur - st.st_child.(d) in
    st.calls.(id) <- st.calls.(id) + 1;
    st.self_ns.(id) <- st.self_ns.(id) + self;
    st.run_self <- st.run_self + self;
    if d > 0 then st.st_child.(d - 1) <- st.st_child.(d - 1) + dur
    else begin
      st.runs <- st.runs + 1;
      let residue = abs (st.run_self - dur) in
      if residue > st.max_residue_ns then st.max_residue_ns <- residue
    end;
    match st.buffer with
    | None -> ()
    | Some b ->
        if b.len < Array.length b.b_id then begin
          let i = b.len in
          b.b_id.(i) <- st.st_id.(d);
          b.b_name.(i) <- id;
          b.b_start.(i) <- start;
          b.b_stop.(i) <- stop;
          b.b_parent.(i) <- (if d > 0 then st.st_id.(d - 1) else -1);
          b.b_run.(i) <- st.run_id;
          b.len <- i + 1
        end
        else b.dropped <- b.dropped + 1
  end

let span id f x =
  enter id;
  match f x with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let calls id = st.calls.(id)
let self_s id = float_of_int st.self_ns.(id) *. 1e-9
let runs () = st.runs
let max_residue_ns () = st.max_residue_ns
let actions () = st.actions
let batch_ops () = st.batch_ops

let write_jsonl path =
  match st.buffer with
  | None -> ()
  | Some b ->
      let oc = open_out path in
      for i = 0 to b.len - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"run\":%d}\n"
          b.b_id.(i) names.(b.b_name.(i)) b.b_start.(i) b.b_stop.(i)
          b.b_parent.(i) b.b_run.(i)
      done;
      close_out oc;
      if b.dropped > 0 then
        Printf.eprintf "spans: buffer full, %d spans not written\n%!" b.dropped

(* ---------- the timing functor ---------- *)

module Timed (P : C.PROTOCOL) : C.PROTOCOL = struct
  include P

  let handled actions =
    st.actions <- st.actions + List.length actions;
    leave ();
    actions

  let core id f t =
    enter id;
    match f t with
    | actions -> handled actions
    | exception e ->
        leave ();
        raise e

  let create (cfg : C.config) =
    let get_batch () =
      enter mempool_get_batch;
      match cfg.C.get_batch () with
      | b ->
          st.batch_ops <- st.batch_ops + Batch.length b;
          leave ();
          b
      | exception e ->
          leave ();
          raise e
    in
    span core_create P.create { cfg with C.get_batch }

  let on_start = core core_start P.on_start

  let on_message t m =
    let id = msg_span m in
    if st.check_kinds && not (String.equal names.(id) ("core.msg." ^ Message.type_name m))
    then failwith ("Spans.msg_span: " ^ Message.type_name m ^ " timed as " ^ names.(id));
    enter id;
    match P.on_message t m with
    | actions -> handled actions
    | exception e ->
        leave ();
        raise e

  let on_view_timeout = core core_timer P.on_view_timeout
  let force_view_change = core core_timer P.force_view_change
  let on_new_payload = core core_payload P.on_new_payload
end

let timed (module P : C.PROTOCOL) : C.protocol = (module Timed (P))
