module Stats = Marlin_analysis.Stats

type component_stat = {
  seconds : Stats.summary; (* per-commit totals for this component *)
  share : float; (* fraction of attributed critical-path time *)
}

type t = {
  label : string;
  commits : int;
  complete : int;
  end_to_end : Stats.summary; (* propose -> commit, complete spans *)
  quorum_waits_per_commit : float;
  components : (Span.component * component_stat) list; (* stable order *)
  phase_waits : (string * Stats.summary) list; (* quorum wait by phase *)
  max_attribution_error : float; (* |total - attributed|, worst span *)
}

(* One walk over each complete span's segments fills every per-span
   figure; each sum then adds its values in the order [Span.attributed] and
   [Span.component_total] do, so the results match those helpers bit for
   bit. *)
let analyze ?(label = "run") spans =
  let complete = List.filter (fun s -> s.Span.complete) spans in
  let n = List.length complete in
  let totals = Array.make n 0. and attributed = Array.make n 0. in
  (* per_comp.(c).(i): span i's seconds in the component of index c *)
  let per_comp =
    Array.init (List.length Span.all_components) (fun _ -> Array.make n 0.)
  in
  let waits = ref 0 in
  let phase_tbl = Hashtbl.create 8 in
  List.iteri
    (fun i (s : Span.t) ->
      totals.(i) <- Span.total s;
      List.iter
        (fun (seg : Span.segment) ->
          let d = Span.duration seg in
          attributed.(i) <- attributed.(i) +. d;
          let c = per_comp.(Span.component_index seg.Span.component) in
          c.(i) <- c.(i) +. d;
          if seg.Span.component = Span.Quorum_wait then begin
            incr waits;
            let cur =
              Option.value ~default:[]
                (Hashtbl.find_opt phase_tbl seg.Span.phase)
            in
            Hashtbl.replace phase_tbl seg.Span.phase (d :: cur)
          end)
        s.Span.segments)
    complete;
  let attributed_sum = Array.fold_left ( +. ) 0. attributed in
  let components =
    List.map
      (fun c ->
        let per_span = per_comp.(Span.component_index c) in
        let sum = Array.fold_left ( +. ) 0. per_span in
        ( c,
          {
            seconds = Stats.summarize (Array.to_list per_span);
            share = (if attributed_sum > 0. then sum /. attributed_sum else 0.);
          } ))
      Span.all_components
  in
  let phase_waits =
    Hashtbl.fold (fun p l acc -> (p, Stats.summarize l) :: acc) phase_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let max_err = ref 0. in
  Array.iteri
    (fun i total ->
      max_err := Float.max !max_err (Float.abs (total -. attributed.(i))))
    totals;
  {
    label;
    commits = List.length spans;
    complete = n;
    end_to_end = Stats.summarize (Array.to_list totals);
    quorum_waits_per_commit =
      (if n = 0 then 0. else float_of_int !waits /. float_of_int n);
    components;
    phase_waits;
    max_attribution_error = !max_err;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let ms x = x *. 1000.

let pp fmt t =
  Format.fprintf fmt
    "critical path (%s): %d commits, %d with a complete causal chain@\n"
    t.label t.commits t.complete;
  if t.complete > 0 then begin
    Format.fprintf fmt
      "  end-to-end: mean %.2f ms, p50 %.2f, p95 %.2f, p99 %.2f@\n"
      (ms t.end_to_end.Stats.mean) (ms t.end_to_end.Stats.p50)
      (ms t.end_to_end.Stats.p95) (ms t.end_to_end.Stats.p99);
    Format.fprintf fmt "  quorum-wait segments per commit: %.2f@\n"
      t.quorum_waits_per_commit;
    Format.fprintf fmt "  %-12s %7s %9s %9s %9s %9s@\n" "component" "share"
      "mean ms" "p50 ms" "p95 ms" "p99 ms";
    List.iter
      (fun (c, st) ->
        Format.fprintf fmt "  %-12s %6.1f%% %9.3f %9.3f %9.3f %9.3f@\n"
          (Span.component_name c) (100. *. st.share) (ms st.seconds.Stats.mean)
          (ms st.seconds.Stats.p50) (ms st.seconds.Stats.p95)
          (ms st.seconds.Stats.p99))
      t.components;
    (match t.phase_waits with
    | [] -> ()
    | _ :: _ ->
        Format.fprintf fmt "  quorum wait by phase:@\n";
        List.iter
          (fun (p, s) ->
            Format.fprintf fmt "    %-12s n=%-5d mean %.2f ms, p95 %.2f ms@\n" p
              s.Stats.count (ms s.Stats.mean) (ms s.Stats.p95))
          t.phase_waits);
    Format.fprintf fmt "  max attribution error: %.3g s@\n"
      t.max_attribution_error
  end

let to_json t =
  let open Json_lite in
  let summary = summary ~dp:9 [ `Mean; `P50; `P95; `P99; `Min; `Max ] in
  let component (c, st) =
    ( Span.component_name c,
      obj [ ("share", num ~dp:6 st.share); ("seconds", summary st.seconds) ] )
  in
  obj
    [ ("label", str t.label); ("commits", int t.commits);
      ("complete", int t.complete); ("end_to_end", summary t.end_to_end);
      ("quorum_waits_per_commit", num ~dp:4 t.quorum_waits_per_commit);
      ( "max_attribution_error",
        raw (Printf.sprintf "%.3g" t.max_attribution_error) );
      ("components", obj (List.map component t.components));
      ( "phase_waits",
        obj (List.map (fun (p, s) -> (p, summary s)) t.phase_waits) ) ]
