module Stats = Marlin_analysis.Stats

let ncomp = List.length Span.all_components

type window = {
  index : int;
  start_time : float;
  stop_time : float;
  committed : int;
  latency : Stats.summary;
  admitted : int;
  duplicate : int;
  rejected : int;
  shed : int;
  occupancy_peak : int;
  nic_backlog_peak : float;
  segment_seconds : float array;
  attributed : float;
}

type t = {
  width : float;
  capacity : int;
  (* ring slot s = window index mod capacity; every array below is one
     column of the ring, preallocated at create — the note_* hot path is
     in-place stores only *)
  committed : int array;
  lat : Stats.Reservoir.t array;
  admitted : int array;
  duplicate : int array;
  rejected : int array;
  shed : int array;
  occ_peak : int array;
  nic_peak : float array; (* unboxed float array *)
  seg : float array; (* capacity * ncomp, flat *)
  attr : float array;
  mutable first : int; (* lowest live window index, -1 before any feed *)
  mutable last : int; (* highest live window index *)
}

(* Per-window latency reservoir size. *)
let latency_capacity = 256

let create ?(capacity = 512) ~width () =
  if width <= 0. then invalid_arg "Timeseries.create: width <= 0";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity <= 0";
  {
    width;
    capacity;
    committed = Array.make capacity 0;
    lat =
      Array.init capacity (fun _ ->
          Stats.Reservoir.create ~capacity:latency_capacity ());
    admitted = Array.make capacity 0;
    duplicate = Array.make capacity 0;
    rejected = Array.make capacity 0;
    shed = Array.make capacity 0;
    occ_peak = Array.make capacity 0;
    nic_peak = Array.make capacity 0.;
    seg = Array.make (capacity * ncomp) 0.;
    attr = Array.make capacity 0.;
    first = -1;
    last = -1;
  }

let is_empty t = t.first < 0

(* Floor semantics: an instant exactly on a boundary opens the later
   window. Simulated time is non-negative, so truncation is floor. *)
let window_of t time = int_of_float (time /. t.width)

let clear_slot t s =
  t.committed.(s) <- 0;
  Stats.Reservoir.clear t.lat.(s);
  t.admitted.(s) <- 0;
  t.duplicate.(s) <- 0;
  t.rejected.(s) <- 0;
  t.shed.(s) <- 0;
  t.occ_peak.(s) <- 0;
  t.nic_peak.(s) <- 0.;
  for c = 0 to ncomp - 1 do
    t.seg.((s * ncomp) + c) <- 0.
  done;
  t.attr.(s) <- 0.

(* Make window [w] addressable, zeroing any slots the advance skips over
   (explicit zeros: untouched intermediate windows must render as zero
   rows, not be absent). Returns the ring slot, or -1 when [w] has already
   been overwritten (older than the ring reaches) — callers drop those. *)
let slot_for t w =
  if w < 0 then -1
  else if t.first < 0 then begin
    t.first <- w;
    t.last <- w;
    let s = w mod t.capacity in
    clear_slot t s;
    s
  end
  else if w > t.last then begin
    let from = Int.max (t.last + 1) (w - t.capacity + 1) in
    for i = from to w do
      clear_slot t (i mod t.capacity)
    done;
    t.last <- w;
    if w - t.first + 1 > t.capacity then t.first <- w - t.capacity + 1;
    w mod t.capacity
  end
  else if w < t.first then -1
  else w mod t.capacity

let note_completion t ~time ~latency =
  let s = slot_for t (window_of t time) in
  if s >= 0 then begin
    t.committed.(s) <- t.committed.(s) + 1;
    Stats.Reservoir.add t.lat.(s) latency
  end

let note_admission t ~time outcome ~occupancy =
  let s = slot_for t (window_of t time) in
  if s >= 0 then begin
    (match outcome with
    | `Admitted -> t.admitted.(s) <- t.admitted.(s) + 1
    | `Duplicate -> t.duplicate.(s) <- t.duplicate.(s) + 1
    | `Rejected_full | `Rejected_client_cap ->
        t.rejected.(s) <- t.rejected.(s) + 1);
    if occupancy > t.occ_peak.(s) then t.occ_peak.(s) <- occupancy
  end

let note_shed t ~time =
  let s = slot_for t (window_of t time) in
  if s >= 0 then t.shed.(s) <- t.shed.(s) + 1

let note_nic_backlog t ~time ~backlog =
  let s = slot_for t (window_of t time) in
  if s >= 0 && backlog > t.nic_peak.(s) then t.nic_peak.(s) <- backlog

(* Split [start_time, stop_time) across windows, conserving the duration
   exactly: each overlap is computed against the window's own boundaries,
   and the same overlap feeds both the component cell and the window's
   attributed total — so per window, attributed = sum of components up to
   float addition order (well under 1e-9 s). *)
let bin_interval t ~start_time ~stop_time ~comp =
  if stop_time > start_time then begin
    let w0 = window_of t start_time in
    let w1 = window_of t stop_time in
    (* a stop exactly on a boundary contributes nothing to window w1 *)
    let w1 =
      if w1 > w0 && stop_time -. (float_of_int w1 *. t.width) <= 0. then w1 - 1
      else w1
    in
    for w = w0 to w1 do
      let lo = Float.max start_time (float_of_int w *. t.width) in
      let hi = Float.min stop_time (float_of_int (w + 1) *. t.width) in
      let d = hi -. lo in
      if d > 0. then begin
        let s = slot_for t w in
        if s >= 0 then begin
          t.seg.((s * ncomp) + comp) <- t.seg.((s * ncomp) + comp) +. d;
          t.attr.(s) <- t.attr.(s) +. d
        end
      end
    done
  end

let bin_segments t spans =
  List.iter
    (fun (sp : Span.t) ->
      if sp.Span.complete then
        List.iter
          (fun (seg : Span.segment) ->
            bin_interval t ~start_time:seg.Span.start_time
              ~stop_time:seg.Span.stop_time
              ~comp:(Span.component_index seg.Span.component))
          sp.Span.segments)
    spans

let render t w =
  let s = w mod t.capacity in
  {
    index = w;
    start_time = float_of_int w *. t.width;
    stop_time = float_of_int (w + 1) *. t.width;
    committed = t.committed.(s);
    latency = Stats.Reservoir.summarize t.lat.(s);
    admitted = t.admitted.(s);
    duplicate = t.duplicate.(s);
    rejected = t.rejected.(s);
    shed = t.shed.(s);
    occupancy_peak = t.occ_peak.(s);
    nic_backlog_peak = t.nic_peak.(s);
    segment_seconds = Array.init ncomp (fun c -> t.seg.((s * ncomp) + c));
    attributed = t.attr.(s);
  }

let windows t =
  if t.first < 0 then []
  else
    let rec go w acc = if w < t.first then acc else go (w - 1) (render t w :: acc) in
    go t.last []

let component_seconds w comp = w.segment_seconds.(Span.component_index comp)

let to_json ?(label = "run") t =
  let open Json_lite in
  let window w =
    let segment i c = (Span.component_name c, num ~dp:9 w.segment_seconds.(i)) in
    obj
      [ ("index", int w.index); ("start", num ~dp:6 w.start_time);
        ("stop", num ~dp:6 w.stop_time); ("committed", int w.committed);
        ("latency", summary ~dp:6 [ `Mean; `P50; `P99; `Max ] w.latency);
        ("admitted", int w.admitted); ("duplicate", int w.duplicate);
        ("rejected", int w.rejected); ("shed", int w.shed);
        ("occupancy_peak", int w.occupancy_peak);
        ("nic_backlog_peak", num ~dp:9 w.nic_backlog_peak);
        ("attributed", num ~dp:9 w.attributed);
        ("segments", obj (List.mapi segment Span.all_components)) ]
  in
  obj
    [ ("label", str label); ("width", num ~dp:6 t.width);
      ("windows", arr (List.map window (windows t))) ]

let pp_window fmt w =
  Format.fprintf fmt
    "[%.2f,%.2f) committed=%d p99=%.4fs adm=%d rej=%d shed=%d occ=%d nic=%.4fs"
    w.start_time w.stop_time w.committed w.latency.Stats.p99 w.admitted
    w.rejected w.shed w.occupancy_peak w.nic_backlog_peak;
  if w.attributed > 0. then begin
    Format.fprintf fmt " |";
    List.iteri
      (fun i comp ->
        Format.fprintf fmt " %s=%.0f%%" (Span.component_name comp)
          (100. *. w.segment_seconds.(i) /. w.attributed))
      Span.all_components
  end
